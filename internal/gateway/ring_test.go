package gateway

import (
	"fmt"
	"testing"
)

func ringOf(names ...string) *Ring {
	r := NewRing(128)
	for _, n := range names {
		r.Add(n)
	}
	return r
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sha256:%064d|pe=64", i)
	}
	return out
}

// TestRingAffinityOnAdd is the consistent-hashing contract: adding one
// backend to a fleet of three moves about 1/4 of the keys — the ones the
// newcomer now owns — and every moved key moves TO the newcomer. Nothing
// reshuffles between survivors.
func TestRingAffinityOnAdd(t *testing.T) {
	r := ringOf("a", "b", "c")
	ks := keys(4000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k] = r.Preference(k)[0]
	}
	r.Add("d")
	moved := 0
	for _, k := range ks {
		now := r.Preference(k)[0]
		if now != before[k] {
			moved++
			if now != "d" {
				t.Fatalf("key %q moved %s -> %s, not to the new backend", k, before[k], now)
			}
		}
	}
	frac := float64(moved) / float64(len(ks))
	// Expect ~1/4; allow generous variance for 128 vnodes.
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("adding 1 of 4 backends moved %.1f%% of keys, want ~25%%", frac*100)
	}
}

// TestRingAffinityOnRemove: ejecting a backend — which the gateway does
// by dropping it from each key's preference list, as Gateway.candidates
// skips an unhealthy one — moves exactly its own keys (to their ring
// successors) and no others.
func TestRingAffinityOnRemove(t *testing.T) {
	r := ringOf("a", "b", "c", "d")
	ks := keys(4000)
	moved, owned := 0, 0
	for _, k := range ks {
		prefs := r.Preference(k)
		before := prefs[0]
		var now string
		for _, b := range prefs {
			if b != "d" {
				now = b
				break
			}
		}
		if before != "d" {
			if now != before {
				t.Fatalf("key %q owned by surviving %s moved to %s", k, before, now)
			}
			continue
		}
		owned++
		if now != before && now == prefs[1] {
			moved++
		}
	}
	if moved != owned {
		t.Errorf("moved %d keys, the removed backend owned %d", moved, owned)
	}
}

// TestRingBalance: vnodes keep per-backend shares within a reasonable
// band of fair.
func TestRingBalance(t *testing.T) {
	r := ringOf("a", "b", "c", "d")
	counts := map[string]int{}
	ks := keys(8000)
	for _, k := range ks {
		counts[r.Preference(k)[0]]++
	}
	fair := len(ks) / 4
	for name, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Errorf("backend %s owns %d of %d keys (fair share %d)", name, n, len(ks), fair)
		}
	}
}

// TestPreferenceOrder: the preference list holds every member exactly
// once, starts at the owner, and is deterministic.
func TestPreferenceOrder(t *testing.T) {
	r := ringOf("a", "b", "c")
	p1 := r.Preference("some-key")
	p2 := r.Preference("some-key")
	if len(p1) != 3 {
		t.Fatalf("preference has %d entries, want 3: %v", len(p1), p1)
	}
	seen := map[string]bool{}
	for _, b := range p1 {
		if seen[b] {
			t.Fatalf("preference repeats %s: %v", b, p1)
		}
		seen[b] = true
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("preference not deterministic: %v vs %v", p1, p2)
		}
	}
}

// TestPickBounded: an overloaded first preference spills to the next
// replica; balanced loads stay home; the spill flag reports the truth.
func TestPickBounded(t *testing.T) {
	prefs := []string{"a", "b", "c"}
	loads := map[string]int64{"a": 0, "b": 0, "c": 0}
	loadFn := func(b string) int64 { return loads[b] }

	if pick, spilled := PickBounded(prefs, loadFn, 1.25); pick != "a" || spilled {
		t.Fatalf("idle fleet: got (%s, %v), want (a, false)", pick, spilled)
	}

	// a overloaded, fleet average low: bound = ceil(1.25*(31)/3) = 13.
	loads["a"], loads["b"], loads["c"] = 30, 0, 0
	if pick, spilled := PickBounded(prefs, loadFn, 1.25); pick != "b" || !spilled {
		t.Fatalf("hot owner: got (%s, %v), want (b, true)", pick, spilled)
	}

	// Uniformly loaded fleet: everyone under bound, owner keeps the key.
	loads["a"], loads["b"], loads["c"] = 50, 50, 50
	if pick, spilled := PickBounded(prefs, loadFn, 1.25); pick != "a" || spilled {
		t.Fatalf("uniform load: got (%s, %v), want (a, false)", pick, spilled)
	}

	if pick, _ := PickBounded(nil, loadFn, 1.25); pick != "" {
		t.Fatalf("empty prefs: got %q, want empty", pick)
	}
}
