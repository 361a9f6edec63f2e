package core_test

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/progs"
)

// TestFrontEndStatsGolden pins every Stats field of the multithreaded
// front end on 16 contexts: the 16-thread reduction chain under the
// rotating and fixed schedulers and under SMT dual issue, the 4-thread
// chain with twelve contexts idle, and an 8-lane gang of the 8-thread
// chain. TestCycleAccountingGolden pins the paper's headline numbers; this
// table pins the rest — per-thread issue counts, idle and stall
// attribution, contention, fetch traffic, and the block plane's
// multithread declines — so a change to how the front end classifies and
// picks threads must reproduce the old schedule exactly.
func TestFrontEndStatsGolden(t *testing.T) {
	type hk = map[pipeline.HazardKind]int64
	cases := []struct {
		name  string
		ins   progs.Instance
		cfg   core.Config
		lanes int // 0 = a Processor
		want  core.Stats
	}{
		{name: "mt-reduction-16t/rotating", ins: progs.MTReduction(16, 16, 64),
			want: core.Stats{
				Cycles: 4363, Instructions: 4316, Scalar: 3276, Parallel: 16, Reduction: 1024,
				PerThread:   []int64{341, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265},
				IdleCycles:  46,
				IdleByKind:  hk{pipeline.HazardData: 2, pipeline.HazardFetch: 42},
				StallByKind: hk{pipeline.HazardReduction: 32, pipeline.HazardData: 249},
				Contention:  292, Fetches: 4357, Flushes: 40,
				BlockDispatches: 4, BlockFallbacks: map[string]int64{"boundary": 23, "multithread": 4330, "refill": 3},
			}},
		{name: "mt-reduction-16t/fixed", ins: progs.MTReduction(16, 16, 64), cfg: core.Config{Scheduler: core.SchedFixed},
			want: core.Stats{
				Cycles: 4346, Instructions: 4316, Scalar: 3276, Parallel: 16, Reduction: 1024,
				PerThread:   []int64{341, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265},
				IdleCycles:  29,
				IdleByKind:  hk{pipeline.HazardData: 2, pipeline.HazardFetch: 25},
				StallByKind: hk{pipeline.HazardReduction: 32, pipeline.HazardData: 42},
				Contention:  778, Fetches: 4340, Flushes: 23,
				BlockDispatches: 0, BlockFallbacks: map[string]int64{"boundary": 5, "multithread": 4335, "refill": 3},
			}},
		{name: "mt-reduction-16t/smt", ins: progs.MTReduction(16, 16, 64), cfg: core.Config{SMT: true},
			want: core.Stats{
				Cycles: 3301, Instructions: 4316, Scalar: 3276, Parallel: 16, Reduction: 1024,
				PerThread:   []int64{341, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265, 265},
				IdleCycles:  24,
				IdleByKind:  hk{pipeline.HazardData: 2, pipeline.HazardFetch: 20},
				StallByKind: hk{pipeline.HazardReduction: 16257, pipeline.HazardData: 19748},
				Contention:  32250, Fetches: 6447, Flushes: 2130,
				BlockDispatches: 0, BlockFallbacks: nil,
			}},
		{name: "mt-reduction-4t", ins: progs.MTReduction(16, 4, 64),
			want: core.Stats{
				Cycles: 1211, Instructions: 1076, Scalar: 816, Parallel: 4, Reduction: 256,
				PerThread:   []int64{281, 265, 265, 265, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
				IdleCycles:  134,
				IdleByKind:  hk{pipeline.HazardReduction: 117, pipeline.HazardData: 2, pipeline.HazardFetch: 13},
				StallByKind: hk{pipeline.HazardReduction: 797, pipeline.HazardData: 509},
				Contention:  1034, Fetches: 1205, Flushes: 128,
				BlockDispatches: 2, BlockFallbacks: map[string]int64{"boundary": 12, "multithread": 1191, "refill": 3},
			}},
		{name: "mt-reduction-8t/gang8", ins: progs.MTReduction(16, 8, 64), lanes: 8,
			want: core.Stats{
				Cycles: 2179, Instructions: 2156, Scalar: 1636, Parallel: 8, Reduction: 512,
				PerThread:   []int64{301, 265, 265, 265, 265, 265, 265, 265, 0, 0, 0, 0, 0, 0, 0, 0},
				IdleCycles:  22,
				IdleByKind:  hk{pipeline.HazardData: 2, pipeline.HazardFetch: 18},
				StallByKind: hk{pipeline.HazardReduction: 16, pipeline.HazardData: 57},
				Contention:  76, Fetches: 2173, Flushes: 16,
				BlockDispatches: 4, BlockFallbacks: map[string]int64{"boundary": 23, "multithread": 2146, "refill": 3},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble(tc.ins.Source)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := isa.DecodeProgram(prog.Insts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Machine = tc.ins.MachineConfig(16, 16)
			cfg.Machine.Engine = machine.EngineSerial
			cfg.Arity = 4
			var got core.Stats
			if tc.lanes == 0 {
				p, err := core.NewDecoded(cfg, dp)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Machine().LoadLocalMem(tc.ins.LocalMem); err != nil {
					t.Fatal(err)
				}
				if got, err = p.Run(0); err != nil {
					t.Fatal(err)
				}
				if err := tc.ins.Check(p.Machine()); err != nil {
					t.Fatal(err)
				}
			} else {
				g, err := core.NewGangDecoded(cfg, dp, tc.lanes)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.lanes; i++ {
					if err := g.Lane(i).LoadLocalMem(tc.ins.LocalMem); err != nil {
						t.Fatal(err)
					}
				}
				res := g.Run(0)
				for i, lr := range res {
					if lr.Err != nil || lr.Peeled {
						t.Fatalf("lane %d left the gang: %+v", i, lr)
					}
					if err := tc.ins.Check(g.Lane(i)); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(lr.Stats, res[0].Stats) {
						t.Fatalf("lane %d stats differ from lane 0's:\n%+v\n%+v", i, lr.Stats, res[0].Stats)
					}
				}
				got = res[0].Stats
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("front-end stats drifted:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// TestStepZeroAlloc16Threads holds the per-cycle Step allocation-free with
// every one of 16 contexts live, for a Processor and an 8-lane Gang: the
// 16-thread reduction chain keeps the ready set, the wake wheel, and the
// picker busy on every cycle. The first 500 cycles (spawns, first fetches)
// warm the engine; the measured window stays inside the reduction loops.
func TestStepZeroAlloc16Threads(t *testing.T) {
	ins := progs.MTReduction(16, 16, 2000)
	prog, err := asm.Assemble(ins.Source)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := isa.DecodeProgram(prog.Insts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Machine: ins.MachineConfig(16, 16), Arity: 4}
	p, err := core.NewDecoded(cfg, dp)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGangDecoded(cfg, dp, 8)
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		step func() (bool, error)
		m    *machine.Machine
	}{
		{"processor", p.Step, p.Machine()},
		{"gang", g.Step, g.Lane(0)},
	}
	for _, e := range engines {
		for i := 0; i < 500; i++ {
			if _, err := e.step(); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(2000, func() {
			if more, err := e.step(); err != nil || !more {
				t.Fatalf("%s: run ended inside the window: %v", e.name, err)
			}
		}); avg != 0 {
			t.Errorf("%s: Step allocates %.2f/cycle with 16 threads live, want 0", e.name, avg)
		}
		for tid := 0; tid < 16; tid++ {
			if !e.m.ThreadActive(tid) {
				t.Fatalf("%s: thread %d not live in the window", e.name, tid)
			}
		}
	}
}
