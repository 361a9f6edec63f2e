package machine

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// benchMachine builds a machine primed with per-PE data and a responder
// pattern, for driving single instructions through ExecDecoded.
func benchMachine(b *testing.B, pes int) *Machine {
	b.Helper()
	m, err := New(Config{PEs: pes, Threads: 2, Width: 16, LocalMemWords: 64}, []isa.Inst{{Op: isa.NOP}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.PIDX, Rd: 1})); err != nil {
		b.Fatal(err)
	}
	m.SetPC(0, 0)
	m.SetScalar(0, 2, int64(pes/2))
	if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.PCLT, Rd: 1, Ra: 1, Rb: 2, SB: true})); err != nil {
		b.Fatal(err)
	}
	m.SetPC(0, 0)
	return m
}

// BenchmarkExecArray measures single-instruction latency across PE
// counts, for the three hot instruction shapes: parallel ALU, value
// reduction (exact tree fold), and the responder count. All paths must
// report 0 allocs/op.
func BenchmarkExecArray(b *testing.B) {
	insts := []struct {
		name string
		in   isa.Inst
	}{
		{"PADD", isa.Inst{Op: isa.PADD, Rd: 3, Ra: 1, Rb: 1, Mask: 1}},
		{"RSUM", isa.Inst{Op: isa.RSUM, Rd: 3, Ra: 1, Mask: 1}},
		{"RCOUNT", isa.Inst{Op: isa.RCOUNT, Rd: 3, Ra: 1}},
	}
	for _, pes := range []int{16, 256, 1024, 4096} {
		m := benchMachine(b, pes)
		for _, tc := range insts {
			d := dec(tc.in)
			b.Run(fmt.Sprintf("%s/pes=%d", tc.name, pes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.SetPC(0, 0)
					if _, err := m.ExecDecoded(0, d); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExecLanes is the lane-wide kernel row: host ns per lane-PE-op
// of one ExecLanes call, by op class, at 16 PEs for one lane (a solo
// machine) and 32 lanes (a gang plane), each lane holding its own data.
// Two more shapes bracket the gang: 32 lanes with lane 16 peeled (a live
// set with a hole, two runs), and one 512-PE lane, the same PE count as a
// 32×16 gang in a single array — the reference the gang plane aims at.
// A 1024-PE lane is the wide-array row. The scalar class is the control
// unit's share of a gang op (an ADD per lane), reported per lane-PE-op
// like the rest so the classes compare. The responder class is the
// associative step loop — pick first, read, clear it — over f1's
// responders, which a compare refills whenever they run out.
//
//	go test ./internal/machine -run '^$' -bench ExecLanes -benchmem
func BenchmarkExecLanes(b *testing.B) {
	classes := []struct {
		name string
		ops  []isa.Inst
	}{
		{"alu", []isa.Inst{
			{Op: isa.PADD, Rd: 3, Ra: 3, Rb: 1},
			{Op: isa.PSUB, Rd: 4, Ra: 1, Rb: 2, SB: true, Mask: 1},
			{Op: isa.PMUL, Rd: 5, Ra: 1, Rb: 2},
		}},
		{"compare", []isa.Inst{
			{Op: isa.PCGT, Rd: 2, Ra: 3, Rb: 3, SB: true},
			{Op: isa.PCEQ, Rd: 3, Ra: 1, Rb: 2},
		}},
		{"flag", []isa.Inst{
			{Op: isa.FAND, Rd: 4, Ra: 1, Rb: 2},
			{Op: isa.FANDN, Rd: 5, Ra: 4, Rb: 1, Mask: 2},
		}},
		{"reduction", []isa.Inst{
			{Op: isa.RCOUNT, Rd: 4, Ra: 1},
			{Op: isa.RMAX, Rd: 5, Ra: 3, Mask: 1},
			{Op: isa.RSUM, Rd: 6, Ra: 3},
		}},
		{"scalar", []isa.Inst{{Op: isa.ADD, Rd: 7, Ra: 7, Rb: 2}}},
		{"responder", []isa.Inst{
			{Op: isa.RANY, Rd: 8, Ra: 1},
			{Op: isa.RFIRST, Rd: 6, Ra: 1},
			{Op: isa.ROR, Rd: 9, Ra: 3, Mask: 6},
			{Op: isa.FANDN, Rd: 1, Ra: 1, Rb: 6},
		}},
	}
	refill := dec(isa.Inst{Op: isa.PCLT, Rd: 1, Ra: 1, Rb: 2, SB: true})
	const span = 1 << 12
	nops, _ := isa.DecodeProgram(make([]isa.Inst, span))
	shapes := []struct {
		pes, lanes int
		hole       bool
	}{{16, 1, false}, {16, 32, false}, {16, 32, true}, {512, 1, false}, {1024, 1, false}}
	for _, sh := range shapes {
		pes, lanes := sh.pes, sh.lanes
		gang, err := NewGangLanes(Config{PEs: pes, Threads: 1, Width: 16, LocalMemWords: 4}, nops, lanes)
		if err != nil {
			b.Fatal(err)
		}
		var live []int
		for j, m := range gang {
			if !sh.hole || j != lanes/2 {
				live = append(live, j)
			}
			rows := make([][]int64, pes)
			for pe := range rows {
				rows[pe] = []int64{int64((pe*7 + j*3) % 23)}
			}
			if err := m.LoadLocalMem(rows); err != nil {
				b.Fatal(err)
			}
			m.SetScalar(0, 2, int64(5+j%7))
			for _, in := range []isa.Inst{{Op: isa.PLW, Rd: 1}, {Op: isa.PIDX, Rd: 3}, {Op: isa.PCLT, Rd: 1, Ra: 1, Rb: 2, SB: true}} {
				if _, err := m.ExecDecoded(0, dec(in)); err != nil {
					b.Fatal(err)
				}
			}
		}
		outs, traps := make([]Outcome, lanes), make([]error, lanes)
		for _, c := range classes {
			ds := make([]*isa.Decoded, len(c.ops))
			for i, in := range c.ops {
				ds[i] = dec(in)
			}
			name := fmt.Sprintf("%s/pes=%d/lanes=%d", c.name, pes, lanes)
			if sh.hole {
				name += "/hole"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if i%(span/8) == 0 {
						for _, m := range gang {
							m.SetPC(0, 0)
						}
					}
					for _, d := range ds {
						ExecLanes(gang, live, 0, d, outs, traps)
					}
					if c.name == "responder" && gang[live[0]].Scalar(0, 8) == 0 {
						ExecLanes(gang, live, 0, refill, outs, traps)
					}
				}
				laneOps := float64(b.N) * float64(len(ds)*len(live)*pes)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/laneOps, "ns/lane-PE-op")
			})
		}
	}
}

// BenchmarkReset is the pool checkout's state-clearing row: host ns per
// lane to return a gang plane to power-on state after a job that loaded a
// word per PE and a few scalar words, at the gang-batch workload's
// configuration (16 PEs, 16 threads, 1024 local and 4096 scalar words),
// for a solo machine and a 32-lane gang (ResetLanes).
//
//	go test ./internal/machine -run '^$' -bench Reset -benchmem
func BenchmarkReset(b *testing.B) {
	cfg := Config{PEs: 16, Threads: 16, Width: 16, LocalMemWords: 1024, ScalarMemWords: 4096}
	dp, _ := isa.DecodeProgram([]isa.Inst{{Op: isa.HALT}})
	rows := make([][]int64, cfg.PEs)
	for pe := range rows {
		rows[pe] = []int64{int64(pe + 1)}
	}
	for _, lanes := range []int{1, 32} {
		gang, err := NewGangLanes(cfg, dp, lanes)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pes=%d/lanes=%d", cfg.PEs, lanes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range gang {
					if err := m.LoadLocalMem(rows); err != nil {
						b.Fatal(err)
					}
					if err := m.LoadScalarMem([]int64{1000, 40, 0, 0}); err != nil {
						b.Fatal(err)
					}
				}
				ResetLanes(gang)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/lane")
		})
	}
}
