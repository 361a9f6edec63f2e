package network

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
	res, steps := drainOne(t, bk, func() { bk.PushValues(ROpMax, 7, vals, allMask(p)) })
	if steps != wantLat {
		t.Errorf("result emerged after %d steps, want %d", steps, wantLat)
	}
	if res.Tag != 7 || res.Op != ROpMax || res.Value != 15 {
		t.Errorf("result = %+v", res)
	}
}

func TestBankInitiationRateViolationPanics(t *testing.T) {
	bk := NewBank(8, 4, 8)
	vals := make([]int64, 8)
	bk.PushValues(ROpOr, 1, vals, allMask(8))
	defer func() {
		if recover() == nil {
			t.Error("second push in one cycle did not panic")
		}
	}()
	bk.PushValues(ROpSum, 2, vals, allMask(8))
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
			op := ROpMax
			if c%2 == 1 {
				op = ROpMin
			}
			bk.PushValues(op, int64(c), vals, allMask(p))
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
			t.Errorf("result %d (%v) = %d, want %d", i, r.Op, r.Value, want)
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
	bk.PushValues(ROpSum, 0, vals, allMask(p))
	bk.Step()
	bk.PushValues(ROpMaxU, 1, vals, allMask(p))
	bk.Step()
	bk.PushFlags(ROpCount, 2, flags, allMask(p))
	bk.Step()
	bk.PushFlags(ROpFirst, 3, flags, allMask(p))
	var got []BankResult
	for c := 0; c < bk.Latency()+2; c++ {
		got = append(got, bk.Step()...)
	}
	if len(got) != 4 {
		t.Fatalf("got %d results: %+v", len(got), got)
	}
	wantVals := map[int64]int64{0: 36, 1: 8, 2: 3}
	for _, r := range got {
		if r.Op == ROpFirst {
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
	res, _ := drainOne(t, bk, func() { bk.PushFlags(ROpCount, 0, flags, allMask(p)) })
	if want := int64(p & 0xff); res.Value != want {
		t.Errorf("RCOUNT of %d responders at width 8 = %d, want %d", p, res.Value, want)
	}
}

// Property: for random vectors/masks/ops, the structural bank's result
// equals the functional reduction model, at exactly the modeled latency.
func TestBankMatchesFunctional(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := 1 + rnd.Intn(70) // up to 7-level trees
		k := 2 + rnd.Intn(6)
		width := []uint{8, 16}[rnd.Intn(2)]
		ones := int64(1)<<width - 1
		bk := NewBank(p, k, width)

		vals := make([]int64, p)
		signedVals := make([]int64, p)
		mask := make([]bool, p)
		flags := make([]bool, p)
		for i := range vals {
			vals[i] = rnd.Int63() & ones
			signedVals[i] = vals[i] << (64 - width) >> (64 - width)
			mask[i] = rnd.Intn(4) != 0
			flags[i] = rnd.Intn(2) == 0
		}

		type check struct {
			op   ReduceOp
			want int64
		}
		checks := []check{
			{ROpOr, ReduceOr(vals, mask)},
			{ROpAnd, ReduceAnd(vals, mask, width)},
			{ROpMax, ReduceMax(signedVals, mask, width) & ones},
			{ROpMin, ReduceMin(signedVals, mask, width) & ones},
			{ROpMaxU, ReduceMaxU(vals, mask)},
			{ROpMinU, ReduceMinU(vals, mask, width)},
			{ROpSum, ReduceSum(signedVals, mask, width) & ones},
			{ROpCount, CountResponders(flags, mask)},
		}
		for tag, c := range checks {
			switch c.op {
			case ROpCount:
				bk.PushFlags(c.op, int64(tag), flags, mask)
			default:
				bk.PushValues(c.op, int64(tag), vals, mask)
			}
			var got *BankResult
			for s := 0; s < bk.Latency()+2 && got == nil; s++ {
				for _, r := range bk.Step() {
					r := r
					got = &r
				}
			}
			if got == nil {
				t.Logf("%v: no result", c.op)
				return false
			}
			if got.Value != c.want {
				t.Logf("seed %d p=%d w=%d %v: bank %d, functional %d", seed, p, width, c.op, got.Value, c.want)
				return false
			}
		}
		// Resolver.
		bk.PushFlags(ROpFirst, 99, flags, mask)
		var vec []bool
		for s := 0; s < bk.Latency()+2 && vec == nil; s++ {
			for _, r := range bk.Step() {
				vec = r.Vector
			}
		}
		want := FirstResponder(flags, mask)
		for i := range want {
			if vec[i] != want[i] {
				t.Logf("resolver bit %d: %v vs %v", i, vec[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
