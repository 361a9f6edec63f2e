// Benchmark harness: one benchmark per table and figure of the paper plus
// the derived experiments of DESIGN.md section 5. Each benchmark measures
// the simulator's host-side speed (ns/op of regenerating the result) and
// reports the architectural quantities of interest as custom metrics
// (model-IPC, stall cycles, modeled wall-clock), so `go test -bench=.
// -benchmem` regenerates the paper's evaluation in one run. cmd/ascbench
// prints the same results as formatted tables.
package asc

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fpga"
	"repro/internal/progs"
)

// BenchmarkTable1 regenerates Table 1 (FPGA resource usage).
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	var r fpga.Report
	for i := 0; i < b.N; i++ {
		r = fpga.Estimate(fpga.PaperArch())
	}
	b.ReportMetric(float64(r.Total.LEs), "model-LEs")
	b.ReportMetric(float64(r.Total.RAMs), "model-RAMs")
	b.ReportMetric(fpga.PipelinedClockMHz(8), "model-MHz")
}

// BenchmarkFig1PipelineOrganization regenerates Figure 1.
func BenchmarkFig1PipelineOrganization(b *testing.B) {
	b.ReportAllocs()
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.Fig1()
	}
	b.ReportMetric(float64(len(s)), "graph-bytes")
}

// BenchmarkFig2Hazards regenerates the three hazard diagrams of Figure 2
// and reports the observed stall of each class.
func BenchmarkFig2Hazards(b *testing.B) {
	b.ReportAllocs()
	var bc, rd, br int64
	var err error
	for i := 0; i < b.N; i++ {
		bc, rd, br, err = experiments.Fig2Stalls()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bc), "broadcast-stall")
	b.ReportMetric(float64(rd), "reduction-stall")
	b.ReportMetric(float64(br), "bcast-reduction-stall")
}

// BenchmarkFig3ControlUnit regenerates the Figure 3 issue trace.
func BenchmarkFig3ControlUnit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStallScaling is experiment D1: the reduction-hazard stall grows
// as log(p).
func BenchmarkStallScaling(b *testing.B) {
	b.ReportAllocs()
	for _, pes := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			b.ReportAllocs()
			var rows []experiments.D1Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = experiments.D1StallScaling([]int{pes}, 4)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows[0].Measured), "stall-cycles")
			b.ReportMetric(float64(rows[0].B), "b")
			b.ReportMetric(float64(rows[0].R), "r")
		})
	}
}

// BenchmarkIPCvsThreads is experiment D2: fine-grain multithreading
// recovers IPC toward 1.
func BenchmarkIPCvsThreads(b *testing.B) {
	b.ReportAllocs()
	for _, pes := range []int{16, 256} {
		for _, threads := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("pes=%d/threads=%d", pes, threads), func(b *testing.B) {
				b.ReportAllocs()
				var rows []experiments.D2Row
				var err error
				for i := 0; i < b.N; i++ {
					rows, err = experiments.D2IPCvsThreads([]int{pes}, []int{threads}, 30)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rows[0].IPC, "model-IPC")
				b.ReportMetric(float64(rows[0].Idle), "idle-cycles")
			})
		}
	}
}

// BenchmarkWallClock is experiment D3: wall-clock comparison of the three
// machine designs with the calibrated clock model.
func BenchmarkWallClock(b *testing.B) {
	b.ReportAllocs()
	for _, pes := range []int{16, 1024} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			b.ReportAllocs()
			var rows []experiments.D3Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = experiments.D3WallClock([]int{pes}, 160)
				if err != nil {
					b.Fatal(err)
				}
			}
			wall := map[string]float64{}
			for _, r := range rows {
				wall[r.Model] = r.WallTimeMs
			}
			b.ReportMetric(wall["non-pipelined"], "np-ms")
			b.ReportMetric(wall["pipelined 1T"], "pl1T-ms")
			b.ReportMetric(wall["pipelined 16T"], "pl16T-ms")
			b.ReportMetric(wall["non-pipelined"]/wall["pipelined 16T"], "speedup")
		})
	}
}

// BenchmarkMaxPEs is experiment D4: RAM blocks limit the PE count.
func BenchmarkMaxPEs(b *testing.B) {
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n, _ = fpga.MaxPEs(fpga.PaperArch(), fpga.EP2C35())
	}
	b.ReportMetric(float64(n), "max-PEs-EP2C35")
}

// BenchmarkKernels is experiment D5: every associative kernel on every
// machine model, verified against the Go oracles each iteration.
func BenchmarkKernels(b *testing.B) {
	b.ReportAllocs()
	const pes = 64
	for _, ins := range progs.Suite(pes, 2026) {
		ins := ins
		b.Run(ins.Name+"/fine-grain", func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				stats, err := ins.RunCore(pes, 1, 4)
				if err != nil {
					b.Fatal(err)
				}
				cycles = stats.Cycles
			}
			b.ReportMetric(float64(cycles), "model-cycles")
		})
		b.Run(ins.Name+"/non-pipelined", func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := ins.RunNonPipelined(pes)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "model-cycles")
		})
	}
}

// BenchmarkAritySweep is experiment D6: broadcast tree arity ablation.
func BenchmarkAritySweep(b *testing.B) {
	b.ReportAllocs()
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			const pes = 1024
			ins := progs.MTReduction(pes, 1, 40)
			var ipc float64
			for i := 0; i < b.N; i++ {
				stats, err := ins.RunCore(pes, 1, k)
				if err != nil {
					b.Fatal(err)
				}
				ipc = stats.IPC()
			}
			b.ReportMetric(ipc, "model-IPC")
			a := fpga.PaperArch()
			a.PEs = pes
			a.Arity = k
			b.ReportMetric(float64(fpga.Network(a).LEs), "network-LEs")
		})
	}
}

// BenchmarkMultiplier is experiment D7: pipelined vs sequential multiplier.
func BenchmarkMultiplier(b *testing.B) {
	b.ReportAllocs()
	var r experiments.D7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.D7Multiplier()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PipelinedIPC, "pipelined-IPC")
	b.ReportMetric(r.SequentialIPC, "sequential-IPC")
}

// BenchmarkScheduler is experiment D8: rotating vs fixed priority.
func BenchmarkScheduler(b *testing.B) {
	b.ReportAllocs()
	var r experiments.D8Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.D8Scheduler()
		if err != nil {
			b.Fatal(err)
		}
	}
	minShare := 1.0
	for _, s := range r.RotatingShares {
		if s < minShare {
			minShare = s
		}
	}
	b.ReportMetric(minShare, "rotating-min-share")
	b.ReportMetric(float64(r.RotatingSpread), "rotating-finish-spread")
	b.ReportMetric(float64(r.FixedSpread), "fixed-finish-spread")
}

// BenchmarkCoarseVsFine is experiment D9: multithreading granularity.
func BenchmarkCoarseVsFine(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.D9Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.D9CoarseVsFine([]int{256})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].FineIPC, "fine-IPC")
	b.ReportMetric(rows[0].CoarseIPC, "coarse-IPC")
	b.ReportMetric(rows[0].SingleIPC, "single-IPC")
}

// BenchmarkSimulatorThroughput measures the host-side simulation speed in
// simulated cycles per second (not a paper figure; useful for sizing
// larger sweeps).
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for _, pes := range []int{16, 256} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			b.ReportAllocs()
			ins := progs.MTReduction(pes, 16, 50)
			total := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := ins.RunCore(pes, 16, 4)
				if err != nil {
					b.Fatal(err)
				}
				total += stats.Cycles
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-cycles/s")
			}
		})
	}
}

// BenchmarkSMT is experiment D10: the two-way SMT extension.
func BenchmarkSMT(b *testing.B) {
	b.ReportAllocs()
	var r experiments.D10Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.D10SMT()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.SingleIPC, "single-IPC")
	b.ReportMetric(r.SMTIPC, "smt-IPC")
}

// BenchmarkPEOrganizations is experiment D11: block-RAM vs LUT register
// files (the section-9 future-work organization).
func BenchmarkPEOrganizations(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.D11Row
	for i := 0; i < b.N; i++ {
		rows = experiments.D11Organizations(fpga.EP2C35())
	}
	for _, r := range rows {
		if r.Threads == 2 {
			b.ReportMetric(float64(r.LUTMaxPEs), "lut-maxPEs-2T")
		}
		if r.Threads == 16 {
			b.ReportMetric(float64(r.LUTMaxPEs), "lut-maxPEs-16T")
			b.ReportMetric(float64(r.BlockRAMMaxPEs), "blockram-maxPEs-16T")
		}
	}
}

// BenchmarkASCLCompiler is experiment D12: ASCL-compiled kernels vs
// hand-written assembly, both validated against the same oracles.
func BenchmarkASCLCompiler(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.D12Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.D12Compiler(32)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range rows {
		if ratio := float64(r.CompiledCycles) / float64(r.HandCycles); ratio > worst {
			worst = ratio
		}
	}
	b.ReportMetric(worst, "worst-cycle-ratio")
}

// BenchmarkLargeArray runs a multithreaded reduction kernel on wide PE
// arrays (256 and 1024 PEs): ns/op is the host cost of a whole wide-array
// job, construction included, and model-cycles its simulated length.
func BenchmarkLargeArray(b *testing.B) {
	for _, pes := range []int{256, 1024} {
		ins := progs.MTReduction(pes, 8, 20)
		prog, err := Assemble(ins.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				p, err := New(Config{PEs: pes, Threads: 8, Width: ins.Width}, prog)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.LoadLocalMem(ins.LocalMem); err != nil {
					b.Fatal(err)
				}
				stats, err := p.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				cycles = stats.Cycles
			}
			b.ReportMetric(float64(cycles), "model-cycles")
		})
	}
}

// BenchmarkStructuralValidation is experiment D13: the kernel suite under
// structural network co-simulation (value + latency checked per reduction).
func BenchmarkStructuralValidation(b *testing.B) {
	b.ReportAllocs()
	var total int64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.D13Validation(32, 2026)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rows {
			total += r.Reductions
		}
	}
	b.ReportMetric(float64(total), "reductions-validated")
}
