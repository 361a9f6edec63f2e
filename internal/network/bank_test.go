package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func allMask(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

// pushKind starts reduction k through the bank: the value units reduce
// vals, the response counter and resolver reduce flags, both gated by mask.
func pushKind(bk *Bank, k isa.ReduceKind, vals []int64, flags, mask []bool) {
	switch k {
	case isa.ReduceCount, isa.ReduceAny, isa.ReduceFirst:
		bk.PushFlags(k, int64(k), flags, mask)
	default:
		bk.PushValues(k, int64(k), vals, mask)
	}
}

// bankValue reads a result as the machine delivers it: the resolver's
// one-hot vector becomes the winning PE index (the PE count when none).
func bankValue(r BankResult) int64 {
	if r.Kind != isa.ReduceFirst {
		return r.Value
	}
	for i, b := range r.Vector {
		if b {
			return int64(i)
		}
	}
	return int64(len(r.Vector))
}

// foldResult is the functional value of reduction k: responders' leaves
// (non-responders inject Identity) folded by the FoldInPlace kernels, in
// the width-bit patterns Bank reports. RCOUNT wraps at the width, RANY is
// 0/1, and RFIRST is the winning PE (len(mask) when none responds).
func foldResult(k isa.ReduceKind, vals []int64, flags, mask []bool, width uint) int64 {
	ones := int64(1)<<width - 1
	sh := 64 - width
	switch k {
	case isa.ReduceCount, isa.ReduceAny, isa.ReduceFirst:
		n, first := int64(0), int64(len(mask))
		for i := range mask {
			if flags[i] && mask[i] {
				if n == 0 {
					first = int64(i)
				}
				n++
			}
		}
		switch {
		case k == isa.ReduceFirst:
			return first
		case k == isa.ReduceAny && n > 0:
			return 1
		}
		return n & ones
	}
	leaves := make([]int64, len(vals))
	for i, v := range vals {
		switch {
		case !mask[i]:
			leaves[i] = Identity(k, width)
		case k == isa.ReduceAnd:
			leaves[i] = ^v & ones
		case k == isa.ReduceMaxS || k == isa.ReduceMinS || k == isa.ReduceSum:
			leaves[i] = v << sh >> sh
		default:
			leaves[i] = v & ones
		}
	}
	var root int64
	switch k {
	case isa.ReduceOr:
		root = FoldInPlaceOr(leaves)
	case isa.ReduceAnd:
		root = ^FoldInPlaceOr(leaves)
	case isa.ReduceMaxS, isa.ReduceMaxU:
		root = FoldInPlaceMax(leaves)
	case isa.ReduceMinS, isa.ReduceMinU:
		root = FoldInPlace(leaves, CombineMin)
	case isa.ReduceSum:
		lo, hi := SatLimits(width)
		root = FoldInPlaceSatAdd(leaves, lo, hi)
	}
	return root & ones
}

// drainOne pushes a single op and steps until its result emerges, returning
// the result and the number of steps taken.
func drainOne(t *testing.T, bk *Bank, push func()) (BankResult, int) {
	t.Helper()
	push()
	for steps := 1; steps <= bk.Latency()+2; steps++ {
		results := bk.Step()
		if len(results) > 0 {
			if len(results) != 1 {
				t.Fatalf("expected one result, got %d", len(results))
			}
			return results[0], steps
		}
	}
	t.Fatal("no result within latency bound")
	return BankResult{}, 0
}

func TestBankLatencyExact(t *testing.T) {
	const p, k, w = 16, 4, 8
	bk := NewBank(p, k, w)
	wantLat := BroadcastLatency(p, k) + 1 + ReductionLatency(p)
	if bk.Latency() != wantLat {
		t.Fatalf("latency = %d, want %d", bk.Latency(), wantLat)
	}
	vals := make([]int64, p)
	for i := range vals {
		vals[i] = int64(i)
	}
	res, steps := drainOne(t, bk, func() { bk.PushValues(isa.ReduceMaxS, 7, vals, allMask(p)) })
	if steps != wantLat {
		t.Errorf("result emerged after %d steps, want %d", steps, wantLat)
	}
	if res.Tag != 7 || res.Kind != isa.ReduceMaxS || res.Value != 15 {
		t.Errorf("result = %+v", res)
	}
}

func TestBankInitiationRateViolationPanics(t *testing.T) {
	bk := NewBank(8, 4, 8)
	vals := make([]int64, 8)
	bk.PushValues(isa.ReduceOr, 1, vals, allMask(8))
	defer func() {
		if recover() == nil {
			t.Error("second push in one cycle did not panic")
		}
	}()
	bk.PushValues(isa.ReduceSum, 2, vals, allMask(8))
}

func TestBankFullyPipelined(t *testing.T) {
	// Back-to-back operations on the same unit, one per cycle: results
	// emerge one per cycle in order ("threads never contend for its use",
	// section 6.4).
	const p = 16
	bk := NewBank(p, 4, 16)
	vals := make([]int64, p)
	for i := range vals {
		vals[i] = int64(i)
	}
	const n = 10
	got := []BankResult{}
	for c := 0; c < n+bk.Latency(); c++ {
		if c < n {
			// Alternate max and min through the same unit: the mode bits
			// travel with the data.
			k := isa.ReduceMaxS
			if c%2 == 1 {
				k = isa.ReduceMinS
			}
			bk.PushValues(k, int64(c), vals, allMask(p))
		}
		got = append(got, bk.Step()...)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Tag != int64(i) {
			t.Errorf("result %d has tag %d (out of order)", i, r.Tag)
		}
		want := int64(15)
		if i%2 == 1 {
			want = 0
		}
		if r.Value != want {
			t.Errorf("result %d (kind %d) = %d, want %d", i, r.Kind, r.Value, want)
		}
	}
}

func TestBankDistinctUnitsOverlap(t *testing.T) {
	// Different units accept ops in the same cycle (one network instruction
	// per cycle enters, but in SMT-style stress all units can hold ops).
	const p = 8
	bk := NewBank(p, 2, 8)
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	flags := []bool{false, true, false, true, false, false, false, true}
	// Push one op per cycle to a different unit.
	bk.PushValues(isa.ReduceSum, 0, vals, allMask(p))
	bk.Step()
	bk.PushValues(isa.ReduceMaxU, 1, vals, allMask(p))
	bk.Step()
	bk.PushFlags(isa.ReduceCount, 2, flags, allMask(p))
	bk.Step()
	bk.PushFlags(isa.ReduceFirst, 3, flags, allMask(p))
	var got []BankResult
	for c := 0; c < bk.Latency()+2; c++ {
		got = append(got, bk.Step()...)
	}
	if len(got) != 4 {
		t.Fatalf("got %d results: %+v", len(got), got)
	}
	wantVals := map[int64]int64{0: 36, 1: 8, 2: 3}
	for _, r := range got {
		if r.Kind == isa.ReduceFirst {
			for i, b := range r.Vector {
				if b != (i == 1) {
					t.Errorf("resolver bit %d = %v", i, b)
				}
			}
			continue
		}
		if want := wantVals[r.Tag]; r.Value != want {
			t.Errorf("tag %d: %d, want %d", r.Tag, r.Value, want)
		}
	}
}

func TestBankCountWrapsAtWidth(t *testing.T) {
	// With p >= 2^Width responders the count wraps like RCOUNT: 300 mod 256.
	const p = 300
	bk := NewBank(p, 4, 8)
	flags := allMask(p)
	res, _ := drainOne(t, bk, func() { bk.PushFlags(isa.ReduceCount, 0, flags, allMask(p)) })
	if want := int64(p & 0xff); res.Value != want {
		t.Errorf("RCOUNT of %d responders at width 8 = %d, want %d", p, res.Value, want)
	}
}

// Property: for random vectors, masks and all ten reduction kinds, the
// structural bank's result equals the fold path's, at exactly the modeled
// latency.
func TestBankMatchesFunctional(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := 1 + rnd.Intn(70) // up to 7-level trees
		k := 2 + rnd.Intn(6)
		width := []uint{8, 16}[rnd.Intn(2)]
		bk := NewBank(p, k, width)

		vals := make([]int64, p)
		mask := make([]bool, p)
		flags := make([]bool, p)
		for i := range vals {
			vals[i] = rnd.Int63() & (int64(1)<<width - 1)
			mask[i] = rnd.Intn(4) != 0
			flags[i] = rnd.Intn(2) == 0
		}
		for kind := isa.ReduceKind(0); int(kind) < isa.NumReduceKinds; kind++ {
			pushKind(bk, kind, vals, flags, mask)
			var got []BankResult
			for s := 1; s <= bk.Latency() && len(got) == 0; s++ {
				if got = bk.Step(); len(got) > 0 && s != bk.Latency() {
					t.Logf("kind %d emerged after %d steps, want %d", kind, s, bk.Latency())
					return false
				}
			}
			if len(got) != 1 {
				t.Logf("kind %d: %d results", kind, len(got))
				return false
			}
			want := foldResult(kind, vals, flags, mask, width)
			if v := bankValue(got[0]); v != want {
				t.Logf("seed %d p=%d w=%d kind %d: bank %d, fold %d", seed, p, width, kind, v, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
