package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

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

// withMulLatency gives p a multiplier latency no configuration sets (the
// derived timing allows at most the 32-bit sequential multiplier's 32), by
// rebuilding its timing parameters and scoreboard before the first cycle.
func withMulLatency(p *Processor, lat int) *Processor {
	p.params.MulLatency = lat
	p.sb = pipeline.NewScoreboard(p.params, p.cfg.Machine.Threads)
	return p
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
	cfg := Config{Machine: machine.Config{PEs: 16, Threads: 1, Width: 16}}
	want := mustRun(t, withMulLatency(build(t, cfg, src), 74))

	p := withMulLatency(build(t, cfg, src), 74)
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
