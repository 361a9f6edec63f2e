package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseText holds the strict parser to two properties on arbitrary
// input: it never panics, and any text it accepts survives the gateway's
// fleet path — SumSamples then WriteFamilies — as text that parses again
// and re-renders byte-for-byte.
func FuzzParseText(f *testing.F) {
	for _, name := range []string{"exposition.golden", "exemplar.golden"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, seed := range []string{
		" 00",
		"x_total 3\n",
		"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 5\n",
		"# HELP c_total x\n# TYPE c_total counter\nc_total{a=\"q\\\"\\\\\\n\"} 1 17 # {trace_id=\"abc\"} 0.5 1754524800.125\n",
		"# HELP asc_x line\\nbreak and \\\\slash\n# TYPE asc_x gauge\nasc_x NaN\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParseText(text)
		if err != nil {
			return
		}
		for _, fam := range fams {
			fam.SumSamples()
		}
		var b strings.Builder
		WriteFamilies(&b, fams)
		again, err := ParseText(b.String())
		if err != nil {
			t.Fatalf("accepted text re-renders unparseable: %v\n--- in ---\n%q\n--- out ---\n%q", err, text, b.String())
		}
		var b2 strings.Builder
		WriteFamilies(&b2, again)
		if b2.String() != b.String() {
			t.Fatalf("re-parse is not identical:\n--- first ---\n%q\n--- second ---\n%q", b.String(), b2.String())
		}
	})
}
