package network

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// TestFoldInPlaceSharding pins a property of the tree topology: folding
// aligned power-of-two blocks independently and then folding the block
// roots gives bit-identical results to the global fold — even for the
// node-saturating sum, which is not associative.
func TestFoldInPlaceSharding(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	combines := map[string]CombineFunc{
		"or":     CombineOr,
		"max":    CombineMax,
		"min":    CombineMin,
		"satadd": SatAdd(8),
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(130)
		vals := make([]int64, n)
		for i := range vals {
			// Small signed values so SatAdd saturates often.
			vals[i] = int64(r.Intn(256)) - 128
		}
		for name, combine := range combines {
			want := FoldInPlace(append([]int64(nil), vals...), combine)
			for shift := uint(0); 1<<shift <= n; shift++ {
				s := 1 << shift
				var roots []int64
				for lo := 0; lo < n; lo += s {
					hi := lo + s
					if hi > n {
						hi = n
					}
					roots = append(roots, FoldInPlace(append([]int64(nil), vals[lo:hi]...), combine))
				}
				if got := FoldInPlace(roots, combine); got != want {
					t.Fatalf("%s: n=%d block=%d sharded fold %d != global %d (vals %v)",
						name, n, s, got, want, vals)
				}
			}
		}
	}
}

// TestFoldInPlaceMatchesTree: the generic FoldInPlace agrees with the
// structural Bank's saturating sum tree for random vectors
// (TestBankMatchesFunctional covers the specialized kernels).
func TestFoldInPlaceMatchesTree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mask := make([]bool, 70)
	for i := range mask {
		mask[i] = true
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(70)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(200)) - 100
		}
		bk := NewBank(n, 4, 8)
		res, _ := drainOne(t, bk, func() { bk.PushValues(isa.ReduceSum, 0, vals, mask[:n]) })
		if got := FoldInPlace(append([]int64(nil), vals...), SatAdd(8)) & 0xff; got != res.Value {
			t.Fatalf("n=%d FoldInPlace %d != structural tree %d", n, got, res.Value)
		}
	}
}

func TestFoldInPlaceZeroAlloc(t *testing.T) {
	buf := make([]int64, 1024)
	work := make([]int64, 1024)
	for i := range buf {
		buf[i] = int64(i)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		copy(work, buf)
		FoldInPlace(work, CombineMax)
	}); allocs != 0 {
		t.Fatalf("FoldInPlace allocates %v times per run", allocs)
	}
}

// TestSpecializedFoldsMatchGeneric pins the specialized fold kernels
// (combine inlined into the row loop) bit-identical to the generic
// FoldInPlace with the corresponding CombineFunc, across random vectors
// including odd lengths and values that saturate the sum unit's nodes.
func TestSpecializedFoldsMatchGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	lo, hi := SatLimits(8)
	cases := []struct {
		name    string
		combine CombineFunc
		fold    func([]int64) int64
	}{
		{"or", CombineOr, FoldInPlaceOr},
		{"max", CombineMax, FoldInPlaceMax},
		{"satadd", SatAdd(8), func(buf []int64) int64 { return FoldInPlaceSatAdd(buf, lo, hi) }},
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(300)
		vals := make([]int64, n)
		for i := range vals {
			// Small signed values so SatAdd saturates often.
			vals[i] = int64(r.Intn(256)) - 128
		}
		for _, tc := range cases {
			want := FoldInPlace(append([]int64(nil), vals...), tc.combine)
			got := tc.fold(append([]int64(nil), vals...))
			if got != want {
				t.Fatalf("trial %d n=%d %s: specialized fold %d != generic %d", trial, n, tc.name, got, want)
			}
		}
	}
}
