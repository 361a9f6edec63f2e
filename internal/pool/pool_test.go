package pool

import (
	"bytes"
	"sync"
	"testing"

	asc "repro"
)

var sumProg = asc.MustAssemble(`
	plw p1, 0(p0)
	rsum s1, p1
	sw s1, 0(s0)
	halt
`)

// fleet sums the per-configuration counters into fleet-wide totals.
func fleet(p *Pool) Stats {
	var s Stats
	for _, ks := range p.StatsByKey() {
		s.Hits += ks.Hits
		s.Misses += ks.Misses
		s.Evictions += ks.Evictions
		s.Idle += ks.Idle
		s.BuildNanos += ks.BuildNanos
	}
	return s
}

func runSum(t *testing.T, proc *asc.Processor, vals []int64) int64 {
	t.Helper()
	rows := make([][]int64, len(vals))
	for i, v := range vals {
		rows[i] = []int64{v}
	}
	if err := proc.LoadLocalMem(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(0); err != nil {
		t.Fatal(err)
	}
	return proc.ScalarMem(0)
}

func TestHitMissCounting(t *testing.T) {
	p := New(4)
	cfg := asc.Config{PEs: 4, Width: 32}
	a, hit, err := p.Get(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first Get reported a hit on an empty pool")
	}
	p.Put(a)
	b, hit, err := p.Get(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second Get should recycle the parked machine")
	}
	if b != a {
		t.Error("hit returned a different processor than was parked")
	}
	// A different configuration misses even with machines parked.
	p.Put(b)
	_, hit, err = p.Get(asc.Config{PEs: 8, Width: 32}, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("config with a different key must not hit")
	}
	s := fleet(p)
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", s)
	}
}

// TestRecycledMachineIsClean runs a machine dirty (including a trap), parks
// it, and checks the recycled machine computes results identical to a fresh
// one — snapshot and all.
func TestRecycledMachineIsClean(t *testing.T) {
	p := New(2)
	cfg := asc.Config{PEs: 4, Width: 32}
	proc, _, err := p.Get(cfg, asc.MustAssemble(`
		pli p1, 3
		li s1, 5
		sw s1, 4500(s0)   ; traps out of range
		halt
	`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(0); err == nil {
		t.Fatal("expected a trap")
	}
	p.Put(proc)

	got, hit, err := p.Get(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("expected to recycle the trapped machine")
	}
	fresh, err := asc.New(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Snapshot(), fresh.Snapshot()) {
		t.Error("recycled machine snapshot differs from fresh machine")
	}
	vals := []int64{10, 20, 30, 40}
	if sum := runSum(t, got, vals); sum != 100 {
		t.Errorf("recycled machine sum = %d, want 100", sum)
	}
}

// TestSetProgramFailureReparks checks that a warm machine whose program
// load fails (a .data segment larger than scalar memory) is re-parked for
// the next request instead of being dropped, and that the failed checkout
// counts as neither a hit nor a miss.
func TestSetProgramFailureReparks(t *testing.T) {
	p := New(2)
	cfg := asc.Config{PEs: 4, Width: 32}
	a, _, err := p.Get(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(a)

	oversized := asc.MustAssemble("halt\n.data\n.space 5000") // > 4096 scalar words
	if _, hit, err := p.Get(cfg, oversized); err == nil {
		t.Fatal("oversized .data segment should fail program load")
	} else if hit {
		t.Error("failed checkout reported as a pool hit")
	}
	s := fleet(p)
	if s.Idle != 1 {
		t.Errorf("idle = %d, want 1 (machine should be re-parked)", s.Idle)
	}
	if s.Hits != 0 {
		t.Errorf("hits = %d, want 0 after a failed checkout", s.Hits)
	}

	// The re-parked machine still serves the next request, clean.
	b, hit, err := p.Get(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || b != a {
		t.Errorf("expected the re-parked machine back (hit=%t, same=%t)", hit, b == a)
	}
	if sum := runSum(t, b, []int64{1, 2, 3, 4}); sum != 10 {
		t.Errorf("recycled-after-failure sum = %d, want 10", sum)
	}
}

// TestRestoreFailureReparks: a failed restore is counted the way a failed
// program load is. A warm checkout whose snapshot is refused counts as
// neither a hit nor a miss, a built one keeps its miss, and both machines
// are re-parked; a good snapshot then restores into the warm machine.
func TestRestoreFailureReparks(t *testing.T) {
	p := New(2)
	cfg := asc.Config{PEs: 4, Width: 32}
	if _, _, err := p.GetRestored(cfg, sumProg, []byte("not a snapshot")); err == nil {
		t.Fatal("a garbage snapshot restored into a built machine")
	}
	if s := fleet(p); s.Hits != 0 || s.Misses != 1 || s.Idle != 1 {
		t.Errorf("after a built checkout's failed restore: hits %d misses %d idle %d, want 0/1/1", s.Hits, s.Misses, s.Idle)
	}
	if _, hit, err := p.GetRestored(cfg, sumProg, []byte("not a snapshot")); err == nil || hit {
		t.Fatalf("a garbage snapshot restored into a warm machine (hit=%t, err=%v)", hit, err)
	}
	if s := fleet(p); s.Hits != 0 || s.Misses != 1 || s.Idle != 1 {
		t.Errorf("after a warm checkout's failed restore: hits %d misses %d idle %d, want 0/1/1", s.Hits, s.Misses, s.Idle)
	}

	ref, err := asc.New(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	if sum := runSum(t, ref, []int64{1, 2, 3, 4}); sum != 10 {
		t.Fatalf("reference sum = %d, want 10", sum)
	}
	proc, hit, err := p.GetRestored(cfg, sumProg, ref.Snapshot())
	if err != nil || !hit {
		t.Fatalf("a good snapshot into the re-parked machine: hit=%t err=%v", hit, err)
	}
	if got := proc.ScalarMem(0); got != 10 {
		t.Errorf("restored scalar word 0 = %d, want 10", got)
	}
	if s := fleet(p); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits %d misses %d, want 1/1", s.Hits, s.Misses)
	}
}

func TestIdleCapEvicts(t *testing.T) {
	p := New(1)
	cfg := asc.Config{PEs: 4}
	a, _, _ := p.Get(cfg, sumProg)
	b, _, _ := p.Get(cfg, sumProg)
	p.Put(a)
	p.Put(b) // over cap: dropped
	s := fleet(p)
	if s.Idle != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 idle / 1 eviction", s)
	}
	// Zero-capacity pool never parks.
	p0 := New(0)
	c, _, _ := p0.Get(cfg, sumProg)
	p0.Put(c)
	if s := fleet(p0); s.Idle != 0 || s.Evictions != 1 {
		t.Errorf("zero-cap stats = %+v, want 0 idle / 1 eviction", s)
	}
}

// TestConcurrentGetPut hammers the pool from many goroutines (run under
// -race) and checks every computed sum is correct.
func TestConcurrentGetPut(t *testing.T) {
	p := New(4)
	cfg := asc.Config{PEs: 4, Width: 32}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				proc, _, err := p.Get(cfg, sumProg)
				if err != nil {
					t.Error(err)
					return
				}
				base := int64(g*100 + i)
				vals := []int64{base, base + 1, base + 2, base + 3}
				want := 4*base + 6
				if sum := runSum(t, proc, vals); sum != want {
					t.Errorf("goroutine %d iter %d: sum = %d, want %d", g, i, sum, want)
				}
				p.Put(proc)
			}
		}(g)
	}
	wg.Wait()
	s := fleet(p)
	if s.Hits == 0 {
		t.Error("concurrent workload with one config should see pool hits")
	}
	if s.Idle > 4 {
		t.Errorf("idle %d exceeds cap 4", s.Idle)
	}
}

// TestStatsByKey checks the per-configuration counter breakdown the
// serving layer exports as labeled fleet metrics.
func TestStatsByKey(t *testing.T) {
	p := New(4)
	small := asc.Config{PEs: 4, Width: 32}
	big := asc.Config{PEs: 8, Width: 32}

	a, _, err := p.Get(small, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(a)
	if a2, _, err := p.Get(small, sumProg); err != nil {
		t.Fatal(err)
	} else {
		p.Put(a2)
	}
	b, _, err := p.Get(big, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(b)

	by := p.StatsByKey()
	ks, ok := by[small.Key()]
	if !ok {
		t.Fatalf("no stats for key %q (have %d keys)", small.Key(), len(by))
	}
	if ks.Hits != 1 || ks.Misses != 1 || ks.Idle != 1 {
		t.Errorf("small key stats = %+v, want hits=1 misses=1 idle=1", ks)
	}
	kb := by[big.Key()]
	if kb.Hits != 0 || kb.Misses != 1 || kb.Idle != 1 {
		t.Errorf("big key stats = %+v, want hits=0 misses=1 idle=1", kb)
	}
}

// TestStatsByKeyEviction checks evictions are attributed to the evicted
// machine's configuration.
func TestStatsByKeyEviction(t *testing.T) {
	p := New(1)
	cfg := asc.Config{PEs: 4, Width: 32}
	a, _, err := p.Get(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := p.Get(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(a)
	p.Put(b) // cap is 1: dropped
	ks := p.StatsByKey()[cfg.Key()]
	if ks.Evictions != 1 || ks.Idle != 1 {
		t.Errorf("key stats = %+v, want evictions=1 idle=1", ks)
	}
}

// TestGangCheckout pins the gang analogue of Get/Put: a parked gang is
// recycled for its (config, lane-count) key, a different lane count
// misses, a recycled gang is architecturally clean, and a parked gang
// costs one idle slot regardless of lanes.
func TestGangCheckout(t *testing.T) {
	p := New(2)
	cfg := asc.Config{PEs: 4, Width: 32}

	g, hit, err := p.GetGang(cfg, sumProg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first GetGang reported a hit on an empty pool")
	}
	// Dirty every lane, then park.
	for lane := 0; lane < g.Lanes(); lane++ {
		if err := g.LoadScalarMem(lane, []int64{int64(100 + lane)}); err != nil {
			t.Fatal(err)
		}
	}
	g.Run(0)
	p.PutGang(g)
	if got := fleet(p).Idle; got != 1 {
		t.Errorf("idle after parking one 3-lane gang = %d, want 1 slot", got)
	}

	// A different lane count misses even with a gang parked.
	g4, hit, err := p.GetGang(cfg, sumProg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("GetGang(4 lanes) hit a 3-lane gang")
	}
	p.PutGang(g4)

	// Same key hits and hands back the recycled gang, clean.
	g2, hit, err := p.GetGang(cfg, sumProg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second GetGang(3 lanes) should recycle the parked gang")
	}
	if g2 != g {
		t.Error("hit returned a different gang than was parked")
	}
	for lane := 0; lane < g2.Lanes(); lane++ {
		if got := g2.ScalarMem(lane, 0); got != 0 {
			t.Errorf("recycled gang lane %d scalar mem = %d, want 0 (stale state)", lane, got)
		}
	}
	fresh, err := asc.NewGang(cfg, sumProg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 3; lane++ {
		if !bytes.Equal(g2.Snapshot(lane), fresh.Snapshot(lane)) {
			t.Errorf("recycled gang lane %d snapshot differs from a fresh gang", lane)
		}
	}

	// Gang keys show up in the per-key statistics with the lane suffix.
	ks, ok := p.StatsByKey()[cfg.Key()+"|lanes=3"]
	if !ok || ks.Hits != 1 || ks.Misses != 1 {
		t.Errorf("gang key stats = %+v (present %v), want hits=1 misses=1", ks, ok)
	}
}

// TestSharedIdleCap pins the one shelf: a single maxIdle bounds solo
// processors and gangs together, while hits, misses and evictions stay
// with each machine's own key.
func TestSharedIdleCap(t *testing.T) {
	p := New(1)
	cfg := asc.Config{PEs: 4, Width: 32}
	proc, _, err := p.Get(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := p.GetGang(cfg, sumProg, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(proc)
	p.PutGang(g) // the processor holds the one slot: dropped
	if s := fleet(p); s.Idle != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 idle / 1 eviction", s)
	}
	if _, hit, err := p.GetGang(cfg, sumProg, 2); err != nil || hit {
		t.Fatalf("GetGang after its gang was dropped: hit=%v err=%v, want a miss", hit, err)
	}
	if got, hit, err := p.Get(cfg, sumProg); err != nil || !hit || got != proc {
		t.Fatalf("Get: hit=%v same=%v err=%v, want the parked processor back", hit, got == proc, err)
	}
	by := p.StatsByKey()
	if ks := by[cfg.Key()]; ks.Hits != 1 || ks.Misses != 1 || ks.Evictions != 0 || ks.Idle != 0 {
		t.Errorf("processor key stats = %+v, want hits=1 misses=1 evictions=0 idle=0", ks)
	}
	if ks := by[cfg.Key()+"|lanes=2"]; ks.Hits != 0 || ks.Misses != 2 || ks.Evictions != 1 || ks.Idle != 0 {
		t.Errorf("gang key stats = %+v, want hits=0 misses=2 evictions=1 idle=0", ks)
	}
}

// TestBuildTimeAccounting checks that BuildNanos accumulates construction
// cost on misses only: hits recycle a warm machine and must not move it.
func TestBuildTimeAccounting(t *testing.T) {
	p := New(4)
	cfg := asc.Config{PEs: 4, Width: 32}
	a, _, err := p.Get(cfg, sumProg)
	if err != nil {
		t.Fatal(err)
	}
	s := fleet(p)
	if s.BuildNanos <= 0 {
		t.Fatalf("BuildNanos = %d after a miss, want > 0", s.BuildNanos)
	}
	afterMiss := s.BuildNanos
	if ks := p.StatsByKey()[cfg.Key()]; ks.BuildNanos != afterMiss {
		t.Errorf("per-key BuildNanos = %d, want %d (single-key pool)", ks.BuildNanos, afterMiss)
	}
	p.Put(a)
	if _, hit, err := p.Get(cfg, sumProg); err != nil || !hit {
		t.Fatalf("warm Get: hit=%v err=%v, want a hit", hit, err)
	}
	if s := fleet(p); s.BuildNanos != afterMiss {
		t.Errorf("BuildNanos moved on a hit: %d -> %d", afterMiss, s.BuildNanos)
	}
	// Gang misses pay into the same ledger, under the gang's composite key.
	g, _, err := p.GetGang(cfg, sumProg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.PutGang(g)
	if s := fleet(p); s.BuildNanos <= afterMiss {
		t.Errorf("gang miss did not add build time: %d -> %d", afterMiss, s.BuildNanos)
	}
}
