package trace

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

func runTrace(t *testing.T, src string) (*core.Processor, []core.InstRecord) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{
		Machine:    machine.Config{PEs: 16, Threads: 1, Width: 8},
		Arity:      4,
		TraceDepth: -1,
	}, prog.Insts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(100000); err != nil {
		t.Fatal(err)
	}
	return p, p.Trace()
}

// TestFig2ReductionDiagram renders the middle example of Figure 2 and
// verifies its structure: the dependent SUB repeats ID during the b+r
// stall and its EX follows the RMAX WB-forwarded result.
func TestFig2ReductionDiagram(t *testing.T) {
	p, recs := runTrace(t, `
		rmax s1, p1
		sub s2, s1, s3
		halt
	`)
	d := Diagram(p.Params(), recs[:2])
	lines := strings.Split(strings.TrimRight(d, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("diagram should have header + 2 rows:\n%s", d)
	}
	rmaxRow, subRow := lines[1], lines[2]
	for _, st := range []string{"IF", "ID", "SR", "B1", "B2", "PR", "R1", "R2", "R3", "R4", "WB"} {
		if !strings.Contains(rmaxRow, st) {
			t.Errorf("rmax row missing stage %s:\n%s", st, d)
		}
	}
	// The stalled SUB shows repeated ID stages (b+r = 6 extra).
	if got := strings.Count(subRow, "ID"); got != 7 {
		t.Errorf("sub row has %d ID cells, want 7 (1 decode + 6 stall):\n%s", got, d)
	}
	if !strings.Contains(subRow, "EX") {
		t.Errorf("sub row missing EX:\n%s", d)
	}
}

func TestDiagramHeaderHasCycleNumbers(t *testing.T) {
	p, recs := runTrace(t, "nop\nhalt")
	d := Diagram(p.Params(), recs)
	header := strings.Split(d, "\n")[0]
	for _, n := range []string{"0", "1", "2", "3"} {
		if !strings.Contains(header, n) {
			t.Errorf("header missing cycle %s: %q", n, header)
		}
	}
}

func TestDiagramEmpty(t *testing.T) {
	if got := Diagram(pipeline.DefaultParams(16, 4, 8), nil); !strings.Contains(got, "no instructions") {
		t.Errorf("empty diagram = %q", got)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value").
		Row("short", 1).
		Row("a-much-longer-name", 123456)
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4:\n%s", len(lines), s)
	}
	// All rows should be equally wide (trailing spaces aside).
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator row = %q", lines[1])
	}
	if !strings.Contains(s, "a-much-longer-name") || !strings.Contains(s, "123456") {
		t.Errorf("table missing content:\n%s", s)
	}
}

func TestTableFloats(t *testing.T) {
	s := NewTable("x").Row(0.123456).String()
	if !strings.Contains(s, "0.123") {
		t.Errorf("float formatting: %s", s)
	}
}
