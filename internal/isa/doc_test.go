package isa

import (
	"os"
	"strings"
	"testing"
)

func TestReferenceCoversEveryOpcode(t *testing.T) {
	ref := Reference()
	for op := Op(0); int(op) < NumOps; op++ {
		needle := "`" + Lookup(op).Name + "`"
		if !strings.Contains(ref, needle) {
			t.Errorf("reference missing %s", needle)
		}
	}
	for _, frag := range []string{"## Encodings", "## Instructions", "Pseudo-instructions", "Reduction timing"} {
		if !strings.Contains(ref, frag) {
			t.Errorf("reference missing section %q", frag)
		}
	}
}

// TestReferenceMatchesDocs keeps the committed docs/ISA.md in step with
// Reference; regenerate it with `go run ./cmd/ascasm -isadoc > docs/ISA.md`.
func TestReferenceMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ISA.md")
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != Reference() {
		t.Error("docs/ISA.md is stale: regenerate it with `go run ./cmd/ascasm -isadoc > docs/ISA.md`")
	}
}
