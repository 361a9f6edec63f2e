package core_test

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progs"
)

// BenchmarkFrontEnd is the front-end scheduling layer row: host ns per
// simulated cycle at 16 PEs for one lane (a Processor) and 8 and 32 lanes
// (a Gang; ns per lockstep cycle, all lanes together; 32 is the gang-batch
// workload's batch size), on the per-cycle reduction chain with 16, 8, and
// 4 threads live out of 16 contexts (the mix the mt16-long workload serves)
// and on the single-threaded chain, which the block plane dispatches. The
// same single-threaded chain with the block plane off is the block plane's
// A/B baseline. Each op resets, reloads, and runs one job to halt.
//
//	go test ./internal/core -run '^$' -bench FrontEnd -benchmem
func BenchmarkFrontEnd(b *testing.B) {
	kernels := []struct {
		name    string
		ins     progs.Instance
		threads int
		blocks  core.BlocksMode
	}{
		{"mt-reduction-16t", progs.MTReduction(16, 16, 64), 16, core.BlocksAuto},
		{"mt-reduction-8t", progs.MTReduction(16, 8, 64), 16, core.BlocksAuto},
		{"mt-reduction-4t", progs.MTReduction(16, 4, 64), 16, core.BlocksAuto},
		{"mt-reduction-1t", progs.MTReduction(16, 1, 1024), 1, core.BlocksAuto},
		{"mt-reduction-1t-blocksoff", progs.MTReduction(16, 1, 1024), 1, core.BlocksOff},
	}
	for _, k := range kernels {
		prog, err := asm.Assemble(k.ins.Source)
		if err != nil {
			b.Fatal(err)
		}
		dp, err := isa.DecodeProgram(prog.Insts)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{Machine: k.ins.MachineConfig(16, k.threads), Arity: 4, Blocks: k.blocks}
		for _, lanes := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s/lanes=%d", k.name, lanes), func(b *testing.B) {
				run := frontEndJob(b, cfg, dp, k.ins, lanes)
				run() // warm: blocks built, buffers sized
				var cycles int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycles += run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
			})
		}
	}
}

// frontEndJob returns a closure that runs one job on a warm engine of the
// given lane count and returns the simulated cycles.
func frontEndJob(b *testing.B, cfg core.Config, dp *isa.DecodedProgram, ins progs.Instance, lanes int) func() int64 {
	b.Helper()
	if lanes == 1 {
		p, err := core.NewDecoded(cfg, dp)
		if err != nil {
			b.Fatal(err)
		}
		return func() int64 {
			p.Reset()
			if err := p.Machine().LoadLocalMem(ins.LocalMem); err != nil {
				b.Fatal(err)
			}
			if err := p.Machine().LoadScalarMem(ins.ScalarMem); err != nil {
				b.Fatal(err)
			}
			s, err := p.Run(0)
			if err != nil {
				b.Fatal(err)
			}
			return s.Cycles
		}
	}
	g, err := core.NewGangDecoded(cfg, dp, lanes)
	if err != nil {
		b.Fatal(err)
	}
	return func() int64 {
		g.Reset()
		for i := 0; i < lanes; i++ {
			if err := g.Lane(i).LoadLocalMem(ins.LocalMem); err != nil {
				b.Fatal(err)
			}
			if err := g.Lane(i).LoadScalarMem(ins.ScalarMem); err != nil {
				b.Fatal(err)
			}
		}
		res := g.Run(0)
		for _, lr := range res {
			if lr.Err != nil || lr.Peeled {
				b.Fatalf("lane left the gang: %+v", lr)
			}
		}
		return res[0].Stats.Cycles
	}
}
