package core_test

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/progs"
)

// TestCycleAccountingGolden pins the cycle-accurate model's timing output
// on a set of deterministic kernels: total cycles, issued instructions,
// idle cycles, and the summed stall cycles of the paper's three hazard
// classes. The golden values were recorded before the decode-plane
// refactor; any change here means the timing model moved, which a pure
// dispatch refactor must never do.
func TestCycleAccountingGolden(t *testing.T) {
	type golden struct {
		cycles, instructions, idle int64
		reductionStall             int64 // HazardReduction stall cycles
		dataStall                  int64 // HazardData stall cycles
	}
	cases := []struct {
		name string
		ins  progs.Instance
		cfg  core.Config
		want golden
	}{
		{
			name: "max-search/pes=16",
			ins:  progs.MaxSearch(16, 1),
			want: golden{cycles: 16, instructions: 4, idle: 11, reductionStall: 7, dataStall: 1},
		},
		{
			name: "mt-reduction/pes=16/threads=4",
			ins:  progs.MTReduction(16, 4, 8),
			want: golden{cycles: 203, instructions: 180, idle: 22, reductionStall: 125, dataStall: 61},
		},
		{
			name: "mt-reduction/pes=64/threads=8",
			ins:  progs.MTReduction(64, 8, 4),
			want: golden{cycles: 255, instructions: 236, idle: 18, reductionStall: 161, dataStall: 56},
		},
		{
			name: "mt-reduction/smt/pes=16/threads=4",
			ins:  progs.MTReduction(16, 4, 8),
			cfg:  core.Config{SMT: true},
			want: golden{cycles: 177, instructions: 180, idle: 24, reductionStall: 186, dataStall: 322},
		},
		{
			name: "image-sum/pes=32",
			ins:  progs.ImageSum(32, 16, 7),
			want: golden{cycles: 170, instructions: 88, idle: 81, reductionStall: 26, dataStall: 32},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble(tc.ins.Source)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			cfg := tc.cfg
			threads := tc.ins.Threads
			if threads < 1 {
				threads = 1
			}
			cfg.Machine = tc.ins.MachineConfig(peCount(tc.name), threads)
			cfg.Machine.Engine = machine.EngineSerial
			p, err := core.New(cfg, prog.Insts)
			if err != nil {
				t.Fatalf("core.New: %v", err)
			}
			if err := p.Machine().LoadLocalMem(tc.ins.LocalMem); err != nil {
				t.Fatal(err)
			}
			if err := p.Machine().LoadScalarMem(tc.ins.ScalarMem); err != nil {
				t.Fatal(err)
			}
			stats, err := p.Run(0)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := tc.ins.Check(p.Machine()); err != nil {
				t.Fatalf("architectural check: %v", err)
			}
			got := golden{
				cycles:         stats.Cycles,
				instructions:   stats.Instructions,
				idle:           stats.IdleCycles,
				reductionStall: stats.StallByKind[pipeline.HazardReduction],
				dataStall:      stats.StallByKind[pipeline.HazardData],
			}
			if got != tc.want {
				t.Errorf("timing drifted:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// peCount extracts the pes=N component baked into the case name, keeping
// the golden table self-describing.
func peCount(name string) int {
	var pes int
	for i := 0; i+4 <= len(name); i++ {
		if name[i:i+4] == "pes=" {
			fmt.Sscanf(name[i+4:], "%d", &pes)
			return pes
		}
	}
	panic("golden case name must contain pes=N")
}
