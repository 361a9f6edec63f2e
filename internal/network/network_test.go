package network

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBroadcastLatency(t *testing.T) {
	cases := []struct{ p, k, want int }{
		{1, 2, 1},
		{2, 2, 1},
		{4, 2, 2},
		{16, 2, 4},
		{16, 4, 2}, // the paper's Figure 1 configuration: B1-B2
		{17, 4, 3},
		{64, 4, 3},
		{1024, 2, 10},
		{1024, 4, 5},
		{1000, 8, 4},
	}
	for _, c := range cases {
		if got := BroadcastLatency(c.p, c.k); got != c.want {
			t.Errorf("BroadcastLatency(%d, %d) = %d, want %d", c.p, c.k, got, c.want)
		}
	}
}

func TestReductionLatency(t *testing.T) {
	cases := []struct{ p, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {16, 4}, {17, 5}, {1024, 10},
	}
	for _, c := range cases {
		if got := ReductionLatency(c.p); got != c.want {
			t.Errorf("ReductionLatency(%d) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestResolverFindsFirst(t *testing.T) {
	p := 16
	r := NewResolver(p)
	in := make([]bool, p)
	in[5], in[9], in[12] = true, true, true
	r.Step(in)
	var out []bool
	var ok bool
	for c := 0; c < r.Latency(); c++ {
		out, ok = r.Step(nil)
	}
	if !ok {
		t.Fatal("no resolver output after latency")
	}
	for i := range out {
		want := i == 5
		if out[i] != want {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want)
		}
	}
}

func TestResolverNoResponders(t *testing.T) {
	p := 8
	r := NewResolver(p)
	r.Step(make([]bool, p))
	var out []bool
	var ok bool
	for c := 0; c < r.Latency(); c++ {
		out, ok = r.Step(nil)
	}
	if !ok {
		t.Fatal("no output")
	}
	for i := range out {
		if out[i] {
			t.Errorf("out[%d] set with no responders", i)
		}
	}
}

// Property: the structural resolver equals FirstResponder for random inputs
// and sizes, including non-powers of two.
func TestResolverMatchesFunctional(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := 1 + rnd.Intn(100)
		in := make([]bool, p)
		for i := range in {
			in[i] = rnd.Intn(3) == 0
		}
		r := NewResolver(p)
		r.Step(in)
		var out []bool
		var ok bool
		for c := 0; c < r.Latency(); c++ {
			out, ok = r.Step(nil)
		}
		if !ok {
			return false
		}
		allTrue := make([]bool, p)
		for i := range allTrue {
			allTrue[i] = true
		}
		want := FirstResponder(in, allTrue)
		for i := range want {
			if out[i] != want[i] {
				t.Logf("p=%d i=%d got %v want %v in=%v", p, i, out[i], want[i], in)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: functional reductions agree with a naive sequential fold for
// order-insensitive operations.
func TestFunctionalMatchesSequentialFold(t *testing.T) {
	const width = 16
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := 1 + rnd.Intn(200)
		vals := make([]int64, p)
		mask := make([]bool, p)
		any := false
		for i := range vals {
			vals[i] = int64(rnd.Intn(1<<width)) - 1<<(width-1)
			mask[i] = rnd.Intn(2) == 0
			any = any || mask[i]
		}
		var or, and, max, min int64
		or = 0
		and = int64(1)<<width - 1
		max = MaxIdentitySigned(width)
		min = MinIdentitySigned(width)
		for i, v := range vals {
			if !mask[i] {
				continue
			}
			uv := v & (int64(1)<<width - 1)
			or |= uv
			and &= uv
			if v > max {
				max = v
			}
			if v < min {
				min = v
			}
		}
		// Functional values: present sign bits the same way the machine
		// would (OR/AND operate on the unsigned bit pattern).
		uvals := make([]int64, p)
		for i, v := range vals {
			uvals[i] = v & (int64(1)<<width - 1)
		}
		if got := ReduceOr(uvals, mask); got != or {
			t.Logf("or: got %d want %d", got, or)
			return false
		}
		if got := ReduceAnd(uvals, mask, width); got != and {
			t.Logf("and: got %d want %d (any=%v)", got, and, any)
			return false
		}
		if got := ReduceMax(vals, mask, width); got != max {
			t.Logf("max: got %d want %d", got, max)
			return false
		}
		if got := ReduceMin(vals, mask, width); got != min {
			t.Logf("min: got %d want %d", got, min)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSaturatingSum(t *testing.T) {
	const width = 8 // range [-128, 127]
	allTrue := func(n int) []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = true
		}
		return m
	}
	// All positive overflow saturates high.
	vals := []int64{100, 100, 100, 100}
	if got := ReduceSum(vals, allTrue(4), width); got != 127 {
		t.Errorf("positive saturation: got %d, want 127", got)
	}
	// All negative saturates low.
	vals = []int64{-100, -100, -100, -100}
	if got := ReduceSum(vals, allTrue(4), width); got != -128 {
		t.Errorf("negative saturation: got %d, want -128", got)
	}
	// Non-overflowing sums are exact.
	vals = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := ReduceSum(vals, allTrue(8), width); got != 36 {
		t.Errorf("exact sum: got %d, want 36", got)
	}
}

// Property: the saturating sum is always within the representable range and
// equals the exact sum when no node can have overflowed.
func TestSaturatingSumBounds(t *testing.T) {
	const width = 8
	lo, hi := SatLimits(width)
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := 1 + rnd.Intn(64)
		vals := make([]int64, p)
		mask := make([]bool, p)
		exact := int64(0)
		for i := range vals {
			vals[i] = int64(rnd.Intn(256)) - 128
			mask[i] = true
			exact += vals[i]
		}
		got := ReduceSum(vals, mask, width)
		if got < lo || got > hi {
			t.Logf("sum %d out of range [%d, %d]", got, lo, hi)
			return false
		}
		if exact >= lo && exact <= hi {
			// The exact sum fits; with same-sign partial sums a tree fold
			// could still transiently saturate only if some subtree exceeds
			// the range, which implies a mixed-sign cancellation. So only
			// require equality when all values share one sign or the exact
			// sum fits and no subtree can overflow (small p bound).
			allNonNeg, allNonPos := true, true
			for _, v := range vals {
				allNonNeg = allNonNeg && v >= 0
				allNonPos = allNonPos && v <= 0
			}
			if (allNonNeg || allNonPos) && got != exact {
				t.Logf("monotone sum: got %d want %d", got, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCountAndAny(t *testing.T) {
	flags := []bool{true, false, true, true, false}
	mask := []bool{true, true, true, false, true}
	if got := CountResponders(flags, mask); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	if !AnyResponder(flags, mask) {
		t.Error("any = false, want true")
	}
	none := make([]bool, 5)
	if AnyResponder(none, mask) {
		t.Error("any of none = true")
	}
	if got := CountResponders(none, mask); got != 0 {
		t.Errorf("count of none = %d", got)
	}
}

func TestZeroResponderIdentities(t *testing.T) {
	const width = 8
	vals := []int64{1, 2, 3, 4}
	mask := make([]bool, 4)
	if got := ReduceOr(vals, mask); got != 0 {
		t.Errorf("or identity = %d", got)
	}
	if got := ReduceAnd(vals, mask, width); got != 255 {
		t.Errorf("and identity = %d, want 255", got)
	}
	if got := ReduceMax(vals, mask, width); got != -128 {
		t.Errorf("max identity = %d, want -128", got)
	}
	if got := ReduceMin(vals, mask, width); got != 127 {
		t.Errorf("min identity = %d, want 127", got)
	}
	if got := ReduceMaxU(vals, mask); got != 0 {
		t.Errorf("maxu identity = %d, want 0", got)
	}
	if got := ReduceMinU(vals, mask, width); got != 255 {
		t.Errorf("minu identity = %d, want 255", got)
	}
	if got := ReduceSum(vals, mask, width); got != 0 {
		t.Errorf("sum identity = %d, want 0", got)
	}
}

func TestNodeCounts(t *testing.T) {
	// Binary tree over 16 leaves: 8+4+2+1 = 15 = p-1 combine nodes.
	if got := ReduceNodes(16); got != 15 {
		t.Errorf("ReduceNodes(16) = %d, want 15", got)
	}
	if got := ReduceNodes(1); got != 1 {
		t.Errorf("ReduceNodes(1) = %d, want 1", got)
	}
	// 4-ary broadcast over 16 leaves: 4 + 1 = 5 internal nodes.
	if got := BroadcastNodes(16, 4); got != 5 {
		t.Errorf("BroadcastNodes(16, 4) = %d, want 5", got)
	}
	if got := BroadcastNodes(1, 4); got != 1 {
		t.Errorf("BroadcastNodes(1, 4) = %d, want 1", got)
	}
}

func TestInvalidParametersPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("BroadcastLatency p=0", func() { BroadcastLatency(0, 2) })
	mustPanic("BroadcastLatency k=1", func() { BroadcastLatency(8, 1) })
	mustPanic("ReductionLatency p=0", func() { ReductionLatency(0) })
	mustPanic("Resolver bad input len", func() {
		r := NewResolver(4)
		r.Step([]bool{true})
	})
}
