package main

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/client"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json")

// TestGolden recomputes the deck-level reference stats of every workload
// for seeds 1 and 2 and compares them with the committed golden (with
// -update, rewrites it instead).
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("computes full-size decks")
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]deckStats{}
	for _, w := range loadDef(t).Workloads {
		for _, seed := range []int64{1, 2} {
			d, err := buildDeck(w.Name, seed, defaultDeckSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := computeRefs(d); err != nil {
				t.Fatal(err)
			}
			key := goldenKey(w.Name, seed)
			fresh[key] = summarize(d)
			if !*update {
				if want, ok := golden[key]; !ok {
					t.Errorf("no golden for %s", key)
				} else if got := fresh[key]; got != want {
					t.Errorf("%s: %+v, golden %+v", key, got, want)
				}
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGateCatchesCorruptGolden flips one golden value at a time and checks
// the gate refuses the deck.
func TestGateCatchesCorruptGolden(t *testing.T) {
	d, err := buildDeck("fleet-short", 1, defaultDeckSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := computeRefs(d); err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(golden, d); err != nil {
		t.Fatalf("pristine golden: %v", err)
	}
	key := goldenKey(d.workload, d.seed)
	pristine := golden[key]
	for name, corrupt := range map[string]func(*deckStats){
		"jobs":         func(s *deckStats) { s.Jobs++ },
		"cycles":       func(s *deckStats) { s.Cycles++ },
		"instructions": func(s *deckStats) { s.Instructions-- },
		"digest":       func(s *deckStats) { s.Digest = strings.Repeat("0", len(s.Digest)) },
	} {
		bad := pristine
		corrupt(&bad)
		golden[key] = bad
		if err := checkGolden(golden, d); err == nil {
			t.Errorf("corrupt %s: gate passed", name)
		}
	}
}

// TestMatch checks the served-result comparison the window applies to
// every call.
func TestMatch(t *testing.T) {
	ref := &reference{cycles: 100, instructions: 40, scalar: []int64{7, 0, 9}}
	ok := func() *client.RunResult {
		return &client.RunResult{Cycles: 100, Instructions: 40, ScalarMem: []int64{7, 0, 9}}
	}
	cases := []struct {
		name  string
		edit  func(*client.RunResult)
		slack int64
		want  bool
	}{
		{"identical", func(*client.RunResult) {}, 0, true},
		{"cycles off", func(r *client.RunResult) { r.Cycles++ }, 0, false},
		{"cycles within resume slack", func(r *client.RunResult) { r.Cycles += resumeCycleSlack }, resumeCycleSlack, true},
		{"cycles beyond resume slack", func(r *client.RunResult) { r.Cycles -= resumeCycleSlack + 1 }, resumeCycleSlack, false},
		{"instructions off", func(r *client.RunResult) { r.Instructions++ }, resumeCycleSlack, false},
		{"dump word off", func(r *client.RunResult) { r.ScalarMem[2] = 8 }, 0, false},
		{"dump short", func(r *client.RunResult) { r.ScalarMem = r.ScalarMem[:2] }, 0, false},
	}
	for _, c := range cases {
		res := ok()
		c.edit(res)
		if err := match(res, ref, c.slack); (err == nil) != c.want {
			t.Errorf("%s: match = %v, want ok=%t", c.name, err, c.want)
		}
	}
	if match(nil, ref, 0) == nil {
		t.Error("nil result matched")
	}
}
