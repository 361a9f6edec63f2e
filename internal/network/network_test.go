package network

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/isa"
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

// TestLatencyLogsExact pins b = ceil(log_k p) and r = ceil(log2 p) up to
// MaxInt against a math/big reference, each call under a deadline: a
// power that wraps past MaxInt stays below p and would spin forever.
func TestLatencyLogsExact(t *testing.T) {
	ceil := func(p, k int) int { // smallest d with k^d >= p
		pow, d := big.NewInt(1), 0
		for pow.Cmp(big.NewInt(int64(p))) < 0 {
			pow.Mul(pow, big.NewInt(int64(k)))
			d++
		}
		return max(d, 1)
	}
	within := func(name string, f func() int) (int, bool) {
		got := make(chan int, 1)
		go func() { got <- f() }()
		select {
		case v := <-got:
			return v, true
		case <-time.After(2 * time.Second):
			t.Errorf("%s did not return within 2s", name)
			return 0, false
		}
	}
	for _, p := range []int{1, 2, 3, 16, 17, 1 << 62, 1<<62 + 1, math.MaxInt} {
		for _, k := range []int{2, 3, 4, 64} {
			if got, ok := within("BroadcastLatency", func() int { return BroadcastLatency(p, k) }); ok && got != ceil(p, k) {
				t.Errorf("BroadcastLatency(%d, %d) = %d, want %d", p, k, got, ceil(p, k))
			}
		}
		if got, ok := within("ReductionLatency", func() int { return ReductionLatency(p) }); ok && got != ceil(p, 2) {
			t.Errorf("ReductionLatency(%d) = %d, want %d", p, got, ceil(p, 2))
		}
	}
	// Hand-checked corners of the reference itself.
	for _, c := range []struct{ p, k, want int }{{1 << 62, 2, 62}, {1<<62 + 1, 2, 63}, {math.MaxInt, 2, 63}, {math.MaxInt, 64, 11}, {17, 3, 3}} {
		if got := ceil(c.p, c.k); got != c.want {
			t.Errorf("reference ceil(log_%d %d) = %d, want %d", c.k, c.p, got, c.want)
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
	for c := 0; c < ReductionLatency(p); c++ {
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
	for c := 0; c < ReductionLatency(p); c++ {
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

// Property: the structural resolver isolates the lowest-indexed responder
// for random inputs and sizes, including non-powers of two.
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
		for c := 0; c < ReductionLatency(p); c++ {
			out, ok = r.Step(nil)
		}
		if !ok {
			return false
		}
		first := foldResult(isa.ReduceFirst, nil, in, allMask(p), 8)
		for i := range out {
			if out[i] != (int64(i) == first) {
				t.Logf("p=%d i=%d got %v want first=%d in=%v", p, i, out[i], first, in)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the fold path agrees with a naive sequential fold for
// order-insensitive operations.
func TestFunctionalMatchesSequentialFold(t *testing.T) {
	const width = 16
	const ones = int64(1)<<width - 1
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := 1 + rnd.Intn(200)
		vals := make([]int64, p)
		mask := make([]bool, p)
		for i := range vals {
			vals[i] = int64(rnd.Intn(1 << width))
			mask[i] = rnd.Intn(2) == 0
		}
		or, and := int64(0), ones
		max, min := Identity(isa.ReduceMaxS, width), Identity(isa.ReduceMinS, width)
		for i, v := range vals {
			if !mask[i] {
				continue
			}
			or |= v
			and &= v
			sv := v << (64 - width) >> (64 - width)
			if sv > max {
				max = sv
			}
			if sv < min {
				min = sv
			}
		}
		for _, c := range []struct {
			k    isa.ReduceKind
			want int64
		}{
			{isa.ReduceOr, or},
			{isa.ReduceAnd, and},
			{isa.ReduceMaxS, max & ones},
			{isa.ReduceMinS, min & ones},
		} {
			if got := foldResult(c.k, vals, nil, mask, width); got != c.want {
				t.Logf("kind %d: got %d want %d", c.k, got, c.want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSaturatingSum(t *testing.T) {
	const width = 8 // range [-128, 127]
	lo, hi := SatLimits(width)
	// All positive overflow saturates high.
	if got := FoldInPlaceSatAdd([]int64{100, 100, 100, 100}, lo, hi); got != 127 {
		t.Errorf("positive saturation: got %d, want 127", got)
	}
	// All negative saturates low.
	if got := FoldInPlaceSatAdd([]int64{-100, -100, -100, -100}, lo, hi); got != -128 {
		t.Errorf("negative saturation: got %d, want -128", got)
	}
	// Non-overflowing sums are exact.
	if got := FoldInPlaceSatAdd([]int64{1, 2, 3, 4, 5, 6, 7, 8}, lo, hi); got != 36 {
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
		exact := int64(0)
		for i := range vals {
			vals[i] = int64(rnd.Intn(256)) - 128
			exact += vals[i]
		}
		got := FoldInPlaceSatAdd(append([]int64(nil), vals...), lo, hi)
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

// TestCountAndAny drives the response counter: RCOUNT is the exact number
// of responders (flag AND mask), RANY whether there is one.
func TestCountAndAny(t *testing.T) {
	flags := []bool{true, false, true, true, false}
	mask := []bool{true, true, true, false, true}
	none := make([]bool, 5)
	for _, c := range []struct {
		k     isa.ReduceKind
		flags []bool
		want  int64
	}{
		{isa.ReduceCount, flags, 2},
		{isa.ReduceAny, flags, 1},
		{isa.ReduceCount, none, 0},
		{isa.ReduceAny, none, 0},
	} {
		bk := NewBank(5, 4, 8)
		res, _ := drainOne(t, bk, func() { bk.PushFlags(c.k, 0, c.flags, mask) })
		if res.Value != c.want {
			t.Errorf("kind %d over %v = %d, want %d", c.k, c.flags, res.Value, c.want)
		}
	}
}

// TestZeroResponderIdentities: with no responders every unit returns its
// identity, through Bank and through the fold path alike. Signed results
// are read back sign-extended.
func TestZeroResponderIdentities(t *testing.T) {
	const width = 8
	vals := []int64{1, 2, 3, 4}
	flags := allMask(4)
	mask := make([]bool, 4)
	for _, c := range []struct {
		k      isa.ReduceKind
		want   int64
		signed bool
	}{
		{isa.ReduceOr, 0, false},
		{isa.ReduceAnd, 255, false},
		{isa.ReduceMaxS, -128, true},
		{isa.ReduceMinS, 127, true},
		{isa.ReduceMaxU, 0, false},
		{isa.ReduceMinU, 255, false},
		{isa.ReduceSum, 0, true},
		{isa.ReduceCount, 0, false},
		{isa.ReduceAny, 0, false},
		{isa.ReduceFirst, 4, false}, // no winner: the PE count
	} {
		bk := NewBank(4, 4, width)
		res, _ := drainOne(t, bk, func() { pushKind(bk, c.k, vals, flags, mask) })
		for name, got := range map[string]int64{
			"bank": bankValue(res),
			"fold": foldResult(c.k, vals, flags, mask, width),
		} {
			if c.signed {
				got = got << (64 - width) >> (64 - width)
			}
			if got != c.want {
				t.Errorf("%s: kind %d identity = %d, want %d", name, c.k, got, c.want)
			}
		}
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
