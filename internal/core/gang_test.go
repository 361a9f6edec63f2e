package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
)

func buildGangAsm(t *testing.T, cfg Config, src string, lanes int) (*Gang, *isa.DecodedProgram) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := isa.DecodeProgram(prog.Insts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGangDecoded(cfg, dp, lanes)
	if err != nil {
		t.Fatal(err)
	}
	return g, dp
}

// loadScalar loads scalar memory image mems[lane] into a machine.
func loadScalar(t *testing.T, mems [][]int64) func(lane int, m *machine.Machine) {
	return func(lane int, m *machine.Machine) {
		t.Helper()
		if err := m.LoadScalarMem(mems[lane]); err != nil {
			t.Fatal(err)
		}
	}
}

// runMatchingSolo loads every lane of g and, per lane, a solo processor with
// load, runs both, and fails t unless every lane — peeled or not — ends
// with its solo run's error, Stats and snapshot. It returns the gang's
// results.
func runMatchingSolo(t *testing.T, g *Gang, cfg Config, dp *isa.DecodedProgram, maxCycles int64, load func(lane int, m *machine.Machine)) []LaneResult {
	t.Helper()
	for i := 0; i < g.Lanes(); i++ {
		load(i, g.Lane(i))
	}
	res := g.Run(maxCycles)
	for i, lr := range res {
		p, err := NewDecoded(cfg, dp)
		if err != nil {
			t.Fatal(err)
		}
		load(i, p.Machine())
		st, err := p.Run(maxCycles)
		if errText(lr.Err) != errText(err) {
			t.Errorf("lane %d (peeled %v): err %v, solo %v", i, lr.Peeled, lr.Err, err)
		}
		if !reflect.DeepEqual(lr.Stats, st) {
			t.Errorf("lane %d (peeled %v): stats\n got: %+v\nsolo: %+v", i, lr.Peeled, lr.Stats, st)
		}
		if !bytes.Equal(g.Lane(i).Snapshot(), p.Snapshot()) {
			t.Errorf("lane %d (peeled %v): snapshot differs from solo", i, lr.Peeled)
		}
	}
	return res
}

// branchSrc branches on scalar memory word 0.
const branchSrc = `
	lw s1, 0(s0)
	bnez s1, big
	addi s2, s0, 5
	j fin
big:
	addi s2, s0, 9
fin:
	rsum s3, p1
	sw s2, 1(s0)
	halt
`

// TestGangDivergencePeel forces a mid-program branch divergence: lane 1
// loads a different word and takes the other branch arm. The divergent lane
// must peel and finish on its fork with its solo run's snapshot and
// statistics; the surviving lanes must be completely unaffected.
func TestGangDivergencePeel(t *testing.T) {
	mc := machine.Config{PEs: 4, Threads: 1, Width: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, branchSrc, 4)
	res := runMatchingSolo(t, g, cfg, dp, 100000, loadScalar(t, [][]int64{{0}, {1}, {0}, {0}}))
	if got := peeledLanes(res); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("peeled lanes %v, want exactly [1]", got)
	}
}

// TestGangDivergentLeaderPeelsAlone pins the lockstep reference as the
// majority, not lane 0: when only lane 0 takes the other branch arm, lane 0
// alone peels and the three agreeing lanes stay in lockstep; every lane
// finishes with its solo run's snapshot and statistics.
func TestGangDivergentLeaderPeelsAlone(t *testing.T) {
	mc := machine.Config{PEs: 4, Threads: 1, Width: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, branchSrc, 4)
	res := runMatchingSolo(t, g, cfg, dp, 100000, loadScalar(t, [][]int64{{1}, {0}, {0}, {0}}))
	if got := peeledLanes(res); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("peeled lanes %v, want exactly [0]", got)
	}
}

// peeledLanes lists the lanes of a gang run that peeled.
func peeledLanes(res []LaneResult) []int {
	var out []int
	for i, lr := range res {
		if lr.Peeled {
			out = append(out, i)
		}
	}
	return out
}

// TestGangTrapFinalizes pins solo trap semantics inside a gang: a lane that
// traps reports the identical error and identical statistics to a solo run
// (the trapping instruction is not counted), and the other lanes finish
// untouched.
func TestGangTrapFinalizes(t *testing.T) {
	const src = `
		lw s1, 0(s0)
		lw s2, 0(s1)
		halt
	`
	mc := machine.Config{PEs: 4, Threads: 1, Width: 32}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, src, 2)

	mems := [2][]int64{{1}, {1 << 20}} // lane 1's second load is out of range
	soloSnaps := make([][]byte, 2)
	soloStats := make([]Stats, 2)
	soloErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		p, err := NewDecoded(cfg, dp)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Machine().LoadScalarMem(mems[i]); err != nil {
			t.Fatal(err)
		}
		soloStats[i], soloErrs[i] = p.Run(100000)
		soloSnaps[i] = p.Snapshot()
		if err := g.Lane(i).LoadScalarMem(mems[i]); err != nil {
			t.Fatal(err)
		}
	}
	if soloErrs[1] == nil {
		t.Fatal("lane 1 solo run did not trap; test is vacuous")
	}

	res := g.Run(100000)
	if res[1].Err == nil || res[1].Err.Error() != soloErrs[1].Error() {
		t.Errorf("lane 1 gang err %v, solo err %v", res[1].Err, soloErrs[1])
	}
	if !reflect.DeepEqual(res[1].Stats, soloStats[1]) {
		t.Errorf("trapped lane stats %+v, solo %+v", res[1].Stats, soloStats[1])
	}
	if res[0].Err != nil || res[0].Peeled {
		t.Fatalf("lane 0: %+v", res[0])
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(g.Lane(i).Snapshot(), soloSnaps[i]) {
			t.Errorf("lane %d snapshot differs from solo", i)
		}
	}
}

// TestGangTrapLowestPE pins the lowest-PE trap rule through the gang path:
// when several PEs trap on one parallel memory op, the reported PE must be
// the lowest — identical to solo — in every lane.
func TestGangTrapLowestPE(t *testing.T) {
	const src = `
		plw p2, 0(p1)
		halt
	`
	mc := machine.Config{PEs: 4, Threads: 1, Width: 32, LocalMemWords: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, src, 2)

	// Lane 0 is clean; lane 1 has bad addresses in PEs 1 and 3.
	for i := 0; i < 2; i++ {
		if i == 1 {
			g.Lane(i).SetParallel(0, 1, 1, 9999)
			g.Lane(i).SetParallel(0, 3, 1, 8888)
		}
	}
	p, err := NewDecoded(cfg, dp)
	if err != nil {
		t.Fatal(err)
	}
	p.Machine().SetParallel(0, 1, 1, 9999)
	p.Machine().SetParallel(0, 3, 1, 8888)
	_, soloErr := p.Run(100000)
	if soloErr == nil {
		t.Fatal("solo run did not trap; test is vacuous")
	}

	res := g.Run(100000)
	if res[1].Err == nil || res[1].Err.Error() != soloErr.Error() {
		t.Errorf("lane 1 gang err %v, solo err %v", res[1].Err, soloErr)
	}
	if res[0].Err != nil {
		t.Errorf("clean lane 0 err: %v", res[0].Err)
	}
}

// blockingDivergenceSrc sends thread 0's first message to worker 1 or 2
// depending on scalar memory word 0, so lanes with different words reach
// the same TRECV with different mailbox states.
const blockingDivergenceSrc = `
	lw s3, 0(s0)
	tspawn s1, w1
	tspawn s2, w2
	li s5, 1
	sub s6, s5, s3
	add s7, s1, s3
	add s8, s1, s6
	li s4, 77
	tsend s7, s4
	li s4, 88
	tsend s8, s4
	tjoin s1
	tjoin s2
	halt
	w1:
	trecv s1
	sw s1, 2(s0)
	texit
	w2:
	trecv s1
	sw s1, 3(s0)
	texit
	`

// TestGangBlockingDivergencePeel exercises the pre-issue divergence check:
// two lanes send their first interthread message to different workers (the
// target is data-dependent), so one lane's worker has mail while the
// other's mailbox is empty at the same TRECV — a blocked-status mismatch
// with no prior Outcome divergence. The minority lane must peel before the
// TRECV executes and still finish with its solo run's snapshot and
// statistics.
func TestGangBlockingDivergencePeel(t *testing.T) {
	mc := machine.Config{PEs: 4, Threads: 4, Width: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, blockingDivergenceSrc, 2)
	res := runMatchingSolo(t, g, cfg, dp, 100000, loadScalar(t, [][]int64{{0}, {1}}))
	if got := peeledLanes(res); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("peeled lanes %v, want exactly [1]", got)
	}
}

// TestGangBlockingDivergentLeaderPeelsAlone is the pre-issue surface of
// the majority rule: lane 0 alone sends its first message to the other
// worker, so at the TRECV its blocked status disagrees with both other
// lanes'. Lane 0 alone peels; the agreeing pair finishes in lockstep, and
// every lane matches its solo run in snapshot and statistics.
func TestGangBlockingDivergentLeaderPeelsAlone(t *testing.T) {
	mc := machine.Config{PEs: 4, Threads: 4, Width: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, blockingDivergenceSrc, 3)
	res := runMatchingSolo(t, g, cfg, dp, 100000, loadScalar(t, [][]int64{{1}, {0}, {0}}))
	if got := peeledLanes(res); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("peeled lanes %v, want exactly [0]", got)
	}
}

// threeWaySrc jumps through scalar memory word 0 to one of three arms
// (PCs 7, 9 and 11). The jump waits on a reduction that clears while the
// worker's ops are ready, so the issue slot is contended at the jump.
const threeWaySrc = `
	tspawn s9, work
	rsum s3, p1
	lw s1, 0(s0)
	add s1, s1, s3
	rsum s3, p1
	add s1, s1, s3
	jr s1
	addi s2, s0, 5
	j fin
	addi s2, s0, 9
	j fin
	addi s2, s0, 13
fin:
	tjoin s9
	sw s2, 1(s0)
	halt
work:
	rsum s4, p1
	addi s5, s4, 1
	addi s6, s4, 2
	addi s7, s4, 3
	addi s8, s4, 4
	addi s5, s4, 5
	addi s6, s4, 6
	texit
`

// longLoopSrc branches on scalar memory word 0 into a reduction loop whose
// trip count the branch picks, running far past the poll window.
const longLoopSrc = `
	lw s1, 0(s0)
	bnez s1, big
	li s4, 5000
	j loop
big:
	li s4, 6000
loop:
	padd p2, p2, p1
	addi s4, s4, -1
	bnez s4, loop
	sw s2, 1(s0)
	halt
`

// TestGangForkMatchesSolo holds every lane of a diverging gang, forked or
// not, to its solo run — error, Stats and snapshot — with the block plane
// on and off. The cases pin what a fork must carry over:
//
//   - blocking: a fork made at the pre-issue check redoes its cycle from
//     the top of Step without a second block-plane attempt, so the
//     cycle's multithread fallback counts once;
//   - long-loop: a fork keeps the gang's poll boundary, so block dispatch
//     stops at the cycles the solo run's does;
//   - three-way: a post-execute fork follows its own outcome, then closes
//     the cycle as Step would (contention, fetch, clock).
func TestGangForkMatchesSolo(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		threads int
		mems    [][]int64
		peeled  []int
	}{
		{"blocking-2", blockingDivergenceSrc, 4, [][]int64{{0}, {1}}, []int{1}},
		{"blocking-3", blockingDivergenceSrc, 4, [][]int64{{1}, {0}, {0}}, []int{0}},
		{"blocking-4", blockingDivergenceSrc, 4, [][]int64{{0}, {1}, {0}, {1}}, []int{1, 3}},
		{"three-way", threeWaySrc, 2, [][]int64{{7}, {9}, {7}, {11}, {7}, {9}, {7}}, []int{1, 3, 5}},
		{"long-loop", longLoopSrc, 1, [][]int64{{0}, {1}, {0}}, []int{1}},
	}
	for _, tc := range cases {
		for _, blocks := range []BlocksMode{BlocksAuto, BlocksOff} {
			t.Run(tc.name+"/blocks-"+blocks.String(), func(t *testing.T) {
				cfg := Config{Machine: machine.Config{PEs: 4, Threads: tc.threads, Width: 16}, Arity: 4, Blocks: blocks}
				g, dp := buildGangAsm(t, cfg, tc.src, len(tc.mems))
				res := runMatchingSolo(t, g, cfg, dp, 100000, loadScalar(t, tc.mems))
				if got := peeledLanes(res); !reflect.DeepEqual(got, tc.peeled) {
					t.Fatalf("peeled lanes %v, want %v", got, tc.peeled)
				}
				if st := res[tc.peeled[0]].Stats; tc.name == "long-loop" && st.Cycles < 4*cancelCheckWindow {
					t.Fatalf("forked lane ran %d cycles, want several poll windows", st.Cycles)
				}
			})
		}
	}
}

// TestGangResetReuse pins the pool contract: a Reset gang re-runs the same
// inputs to bit-identical results without reallocating its state planes.
func TestGangResetReuse(t *testing.T) {
	const src = `
		lw s1, 0(s0)
		rsum s2, p1
		add s3, s1, s2
		sw s3, 1(s0)
		halt
	`
	mc := machine.Config{PEs: 4, Threads: 1, Width: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, _ := buildGangAsm(t, cfg, src, 3)

	load := func() {
		for i := 0; i < 3; i++ {
			if err := g.Lane(i).LoadScalarMem([]int64{int64(10 * (i + 1))}); err != nil {
				t.Fatal(err)
			}
			g.Lane(i).SetParallel(0, 0, 1, int64(i+1))
		}
	}
	load()
	res := g.Run(100000)
	first := make([][]byte, 3)
	for i := 0; i < 3; i++ {
		if res[i].Err != nil || res[i].Peeled {
			t.Fatalf("run 1 lane %d: %+v", i, res[i])
		}
		first[i] = g.Lane(i).Snapshot()
	}

	g.Reset()
	if len(g.live) != 3 {
		t.Fatalf("live lanes after Reset = %d, want 3", len(g.live))
	}
	load()
	res = g.Run(100000)
	for i := 0; i < 3; i++ {
		if res[i].Err != nil || res[i].Peeled {
			t.Fatalf("run 2 lane %d: %+v", i, res[i])
		}
		if !bytes.Equal(g.Lane(i).Snapshot(), first[i]) {
			t.Errorf("lane %d: second run after Reset differs from first", i)
		}
	}
}

// TestGangRejectsUnsupported pins the constructor's exclusions.
func TestGangRejectsUnsupported(t *testing.T) {
	dp, err := isa.DecodeProgram([]isa.Inst{{Op: isa.HALT}})
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Config{PEs: 4, Threads: 2, Width: 8}
	cases := []struct {
		name string
		cfg  Config
		n    int
		want string
	}{
		{"smt", Config{Machine: mc, SMT: true}, 2, "SMT"},
		{"trace", Config{Machine: mc, TraceDepth: -1}, 2, "tracing"},
		{"structural", Config{Machine: mc, StructuralNetworks: true}, 2, "structural"},
		{"zero lanes", Config{Machine: mc}, 0, "lane"},
	}
	for _, tc := range cases {
		if _, err := NewGangDecoded(tc.cfg, dp, tc.n); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestProcessorStepZeroAlloc pins the one-lane engine's hot paths as
// allocation-free once warm: the per-cycle Step of a multithreaded run, and
// a whole block-dispatching window of a single-threaded run (runBlock plus
// the per-cycle fallbacks RunContext takes between its polls).
func TestProcessorStepZeroAlloc(t *testing.T) {
	const loop = `
	loop:
		rsum s2, p1
		padd p2, p2, s2
		addi s1, s1, -1
		bnez s1, loop
	`
	mc := machine.Config{PEs: 16, Threads: 2, Width: 16, LocalMemWords: 64}
	cfg := Config{Machine: mc, Arity: 4}

	mt := build(t, cfg, "tspawn s3, work\n work:\n li s1, 30000\n"+loop+"halt\n")
	for i := 0; i < 500; i++ {
		if _, err := mt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := mt.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Step allocates %.2f/cycle, want 0", avg)
	}

	st := build(t, cfg, "li s1, 30000\n"+loop+"halt\n")
	window := func() {
		stopAt := st.cycle + cancelCheckWindow
		for st.cycle < stopAt {
			ran, err := st.runBlock(stopAt)
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				if more, err := st.Step(); err != nil || !more {
					t.Fatalf("run ended inside the window: %v", err)
				}
			}
		}
	}
	window()
	before := st.blockDispatches
	if avg := testing.AllocsPerRun(20, window); avg != 0 {
		t.Errorf("block-dispatch window allocates %.2f, want 0", avg)
	}
	if st.blockDispatches == before {
		t.Fatal("block plane never engaged; test is vacuous")
	}
}

// TestGangStepZeroAlloc extends the zero-allocation guarantee to the gang
// cycle loop: once a gang is checked out and warm, Step must not allocate.
func TestGangStepZeroAlloc(t *testing.T) {
	const src = `
		li s1, 30000
	loop:
		rsum s2, p1
		padd p2, p2, s2
		addi s1, s1, -1
		bnez s1, loop
		halt
	`
	mc := machine.Config{PEs: 16, Threads: 2, Width: 8, LocalMemWords: 64}
	cfg := Config{Machine: mc, Arity: 4}
	g, _ := buildGangAsm(t, cfg, src, 8)

	for i := 0; i < 500; i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("gang Step allocates %.2f/cycle, want 0", avg)
	}

	// A 32-lane gang on a search-fold loop — the lane-wide kernels behind
	// ALU, compare, flag, count and sum ops plus a branch, each lane with
	// its own data — through the per-cycle Step and a block-dispatching
	// window (fused superinstructions included).
	const fold = `
		li s1, 30000
		li s3, 40
		plw p1, 0(p0)
	loop:
		padd p3, p3, p1
		pcgt f1, p3, s3
		fand f2, f1, f1
		rcount s4, f1
		add s5, s5, s4
		rsum s2, p3
		add s6, s6, s2
		addi s1, s1, -1
		bnez s1, loop
		halt
	`
	fcfg := Config{Machine: machine.Config{PEs: 16, Threads: 1, Width: 16, LocalMemWords: 4}, Arity: 4}
	for _, blocks := range []BlocksMode{BlocksOff, BlocksAuto} {
		fcfg.Blocks = blocks
		fg, _ := buildGangAsm(t, fcfg, fold, 32)
		for j := 0; j < fg.Lanes(); j++ {
			rows := make([][]int64, 16)
			for pe := range rows {
				rows[pe] = []int64{int64((pe + j) % 5)}
			}
			if err := fg.Lane(j).LoadLocalMem(rows); err != nil {
				t.Fatal(err)
			}
		}
		window := func() {
			stopAt := fg.cycle + cancelCheckWindow
			for fg.cycle < stopAt {
				ran := false
				if fg.blocks != nil {
					var err error
					if ran, err = fg.runBlock(stopAt); err != nil {
						t.Fatal(err)
					}
				}
				if !ran {
					if more, err := fg.Step(); err != nil || !more {
						t.Fatalf("run ended inside the window: %v", err)
					}
				}
			}
		}
		window()
		if avg := testing.AllocsPerRun(10, window); avg != 0 {
			t.Errorf("32-lane search-fold window (blocks %v) allocates %.2f, want 0", blocks, avg)
		}
		if len(fg.live) != 32 {
			t.Fatalf("blocks %v: %d lanes live, want 32", blocks, len(fg.live))
		}
		if blocks == BlocksAuto && fg.blockDispatches == 0 {
			t.Fatal("block plane never engaged; the fused half is vacuous")
		}
	}
}

// TestGangLiveLanesSharePC pins the engine's side of machine.ExecLanes'
// shared-PC precondition: after every cycle, every live lane holds each
// thread in the leader's state and at the leader's PC, through spawns,
// mailbox traffic, joins and a divergence peel.
func TestGangLiveLanesSharePC(t *testing.T) {
	mc := machine.Config{PEs: 4, Threads: 4, Width: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, _ := buildGangAsm(t, cfg, blockingDivergenceSrc, 4)
	for i, mem := range [][]int64{{0}, {0}, {1}, {0}} {
		if err := g.Lane(i).LoadScalarMem(mem); err != nil {
			t.Fatal(err)
		}
	}
	for cycles := 0; ; cycles++ {
		more, err := g.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(g.live) > 0 {
			lead := g.lanes[g.live[0]]
			for _, li := range g.live[1:] {
				m := g.lanes[li]
				for tid := range mc.Threads {
					if m.ThreadActive(tid) != lead.ThreadActive(tid) || m.PC(tid) != lead.PC(tid) {
						t.Fatalf("cycle %d: lane %d thread %d (active %v, pc %d) differs from the leader's (active %v, pc %d)",
							cycles, li, tid, m.ThreadActive(tid), m.PC(tid), lead.ThreadActive(tid), lead.PC(tid))
					}
				}
			}
		}
		if !more {
			break
		}
	}
	if res := g.res[2]; !res.Peeled {
		t.Fatalf("lane 2 (divergent mailbox) not peeled: %+v", res)
	}
}
