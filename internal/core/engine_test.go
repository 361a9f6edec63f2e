package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
)

// TestCoreEngineEquivalence runs a multithreaded reduction-heavy kernel
// through the full timed core on both host engines and demands identical
// stats and identical architectural snapshots. Under `go test -race` this
// also drives the worker-pool barrier through the core's issue loop.
func TestCoreEngineEquivalence(t *testing.T) {
	// Each of 4 threads loads its slice, reduces it, and stores the result;
	// thread 0 spawns the rest and joins them.
	src := `
        tid s1
        bne s1, s0, work
        tspawn s2, work
        tspawn s3, work
        tspawn s4, work
work:
        tid s1
        pidx p1
        padd p2, p1, s1 ?f0
        pclt f1, p1, s1
        rsum s5, p2 ?f1
        rmax s6, p2
        rcount s7, f1
        rfirst f2, f1
        ror s8, p2 ?f2
        add s9, s5, s6
        add s9, s9, s7
        add s9, s9, s8
        sw s9, 0(s1)
        tid s1
        bne s1, s0, done
        tjoin s2
        tjoin s3
        tjoin s4
        halt
done:
        texit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	var stats []Stats
	for _, engine := range []machine.Engine{machine.EngineSerial, machine.EngineParallel} {
		cfg := Config{Machine: machine.Config{
			PEs: 96, Threads: 8, Width: 16, LocalMemWords: 64, Engine: engine,
		}}
		p, err := New(cfg, prog.Insts)
		if err != nil {
			t.Fatal(err)
		}
		if engine == machine.EngineParallel && !p.Machine().EngineParallelActive() {
			t.Fatal("parallel engine not active in core run")
		}
		st, err := p.Run(2_000_000)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		snaps = append(snaps, p.Machine().Snapshot())
		stats = append(stats, st)
		p.Machine().Close()
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("core snapshots differ between engines")
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Fatalf("core stats differ between engines:\nserial:   %+v\nparallel: %+v", stats[0], stats[1])
	}
}

// TestCoreStructuralWithParallelEngine: the structural network co-simulation
// must agree with the sharded engine's reduction results too.
func TestCoreStructuralWithParallelEngine(t *testing.T) {
	src := `
        pidx p1
        pclt f1, p1, s0
        fnot f1, f1
        rsum s2, p1 ?f1
        rmax s3, p1
        rcount s4, f1
        sw s2, 0(s0)
        halt
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Machine:            machine.Config{PEs: 64, Threads: 2, Width: 16, Engine: machine.EngineParallel},
		StructuralNetworks: true,
	}
	p, err := New(cfg, prog.Insts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Machine().Close()
	if _, err := p.Run(100_000); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialUnitsNeverOverlap runs four threads whose heads contend
// for the sequential divider and multiplier of both datapaths and checks,
// from the trace, that no unit accepts a new operation before its last one
// is done. Several threads are ready with such a head at once, so a thread
// already in the ready set must drop out when another reserves the unit.
func TestSequentialUnitsNeverOverlap(t *testing.T) {
	cfg := paperCfg(4)
	cfg.SeqMul = true
	p := build(t, cfg, `
		tspawn s1, work
		tspawn s1, work
		tspawn s1, work
	work:
		div s2, s3, s4
		pdiv p1, p2, p3
		mul s5, s3, s4
		pmul p4, p2, p3
		div s6, s3, s4
		pmul p5, p2, p3
		texit
	`)
	s := mustRun(t, p)
	if s.Contention == 0 {
		t.Fatal("no two threads were ready at once; the test is vacuous")
	}
	params := p.Params()
	type unit struct {
		div    bool
		scalar bool
	}
	busy := map[unit]int64{} // unit -> cycle it frees
	for _, r := range p.Trace() {
		info := r.Inst.Info()
		if !info.IsDiv && !info.IsMul {
			continue
		}
		u := unit{div: info.IsDiv, scalar: info.Class == isa.ClassScalar}
		if free := busy[u]; r.Issue < free {
			t.Fatalf("%v issued at cycle %d by thread %d, unit busy until %d", r.Inst, r.Issue, r.Thread, free)
		}
		lat := params.MulLatency
		if u.div {
			lat = params.DivLatency
		}
		busy[u] = r.Issue + int64(lat)
	}
}

// TestStepAfterBlockPlaneStop mixes the two ways of advancing a processor:
// Step a thread into a wait longer than the wake wheel's span, let Run's
// block plane carry the clock past the wheel slot that re-checks the
// thread to a cycle limit inside that wait, then Step to the end. The
// result must match one uninterrupted Run. (The multiply issues at cycle
// 3, so the dependent add waits until cycle 77; the wheel re-checks it at
// cycle 67, which the block plane skips.)
func TestStepAfterBlockPlaneStop(t *testing.T) {
	const src = `
		addi s2, s0, 7
		mul s1, s2, s2
		add s3, s1, s1
		add s4, s3, s2
		halt
	`
	cfg := Config{Machine: machine.Config{PEs: 16, Threads: 1, Width: 16}, MulLatency: 74}
	want := mustRun(t, build(t, cfg, src))

	p := build(t, cfg, src)
	for p.Cycle() < 10 {
		if _, err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := p.Run(72); !errors.Is(err, ErrCycleLimit) || st.BlockDispatches == 0 {
		t.Fatalf("Run(72) = %v after %d block dispatches, want the block plane stopped by the cycle limit inside the multiply's wait", err, st.BlockDispatches)
	}
	for {
		more, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	got := p.finish()
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
		!reflect.DeepEqual(got.IdleByKind, want.IdleByKind) || !reflect.DeepEqual(got.StallByKind, want.StallByKind) {
		t.Fatalf("stepped run differs from one Run:\n got  %+v\n want %+v", got, want)
	}
}
