package machine

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// benchMachine builds a machine primed with per-PE data and a responder
// pattern, for driving single instructions through ExecDecoded.
func benchMachine(b *testing.B, pes int, engine Engine) *Machine {
	b.Helper()
	m, err := New(Config{PEs: pes, Threads: 2, Width: 16, LocalMemWords: 64, Engine: engine}, []isa.Inst{{Op: isa.NOP}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
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

// BenchmarkExecEngines measures single-instruction latency of the serial
// and sharded engines across PE counts, for the three hot instruction
// shapes: parallel ALU, value reduction (exact tree fold), and the
// responder count. All paths must report 0 allocs/op.
func BenchmarkExecEngines(b *testing.B) {
	insts := []struct {
		name string
		in   isa.Inst
	}{
		{"PADD", isa.Inst{Op: isa.PADD, Rd: 3, Ra: 1, Rb: 1, Mask: 1}},
		{"RSUM", isa.Inst{Op: isa.RSUM, Rd: 3, Ra: 1, Mask: 1}},
		{"RCOUNT", isa.Inst{Op: isa.RCOUNT, Rd: 3, Ra: 1}},
	}
	for _, pes := range []int{16, 256, 1024, 4096} {
		for _, engine := range []Engine{EngineSerial, EngineParallel} {
			if engine == EngineParallel && pes < AutoParallelThreshold {
				continue
			}
			m := benchMachine(b, pes, engine)
			for _, tc := range insts {
				d := dec(tc.in)
				b.Run(fmt.Sprintf("%s/pes=%d/%v", tc.name, pes, engine), func(b *testing.B) {
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
}
