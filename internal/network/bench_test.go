package network

import (
	"testing"

	"repro/internal/isa"
)

// Micro-benchmarks for the structural network primitives: these bound the
// host-side cost of structural co-simulation (ns per simulated network
// cycle) at several machine sizes.

func BenchmarkResolverStep(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []int{16, 256, 4096} {
		b.Run(sizeName(p), func(b *testing.B) {
			b.ReportAllocs()
			r := NewResolver(p)
			in := make([]bool, p)
			for i := range in {
				in[i] = i%3 == 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Step(in)
			}
		})
	}
}

func BenchmarkBankStep(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []int{16, 256} {
		b.Run(sizeName(p), func(b *testing.B) {
			b.ReportAllocs()
			bk := NewBank(p, 4, 16)
			vals := make([]int64, p)
			mask := make([]bool, p)
			for i := range vals {
				vals[i] = int64(i)
				mask[i] = true
			}
			kinds := []isa.ReduceKind{isa.ReduceMaxS, isa.ReduceSum, isa.ReduceOr, isa.ReduceMinS}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.PushValues(kinds[i%len(kinds)], int64(i), vals, mask)
				bk.Step()
			}
		})
	}
}

func sizeName(p int) string {
	switch p {
	case 16:
		return "p=16"
	case 256:
		return "p=256"
	default:
		return "p=4096"
	}
}
