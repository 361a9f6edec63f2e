package network

import (
	"fmt"

	"repro/internal/isa"
)

// taggedOp identifies an operation travelling through a unit's pipeline;
// the mode bits ride along with the data, which is how one pipelined tree
// serves different operations from different threads in consecutive cycles.
type taggedOp struct {
	kind isa.ReduceKind
	tag  int64
}

// BankResult is one value emerging from the reduction network.
type BankResult struct {
	Kind   isa.ReduceKind
	Tag    int64
	Value  int64  // scalar result (every unit except the resolver)
	Vector []bool // resolver result (isa.ReduceFirst only)
}

// modalTree is a pipelined binary reduction tree whose node function is
// selected by the mode bits travelling with each operation. Levels run from
// the first combine row (0) to the root (depth-1); ops[l] identifies the
// operation whose partial results currently occupy level l.
type modalTree struct {
	p        int
	width    uint
	depth    int
	levels   [][]int64
	occupied []bool
	ops      []taggedOp
	dispatch func(k isa.ReduceKind, width uint, a, b int64) int64
}

func newModalTree(p int, width uint, dispatch func(k isa.ReduceKind, width uint, a, b int64) int64) *modalTree {
	depth := ReductionLatency(p)
	t := &modalTree{p: p, width: width, depth: depth, dispatch: dispatch}
	w := p
	for l := 0; l < depth; l++ {
		w = (w + 1) / 2
		t.levels = append(t.levels, make([]int64, w))
	}
	t.occupied = make([]bool, depth)
	t.ops = make([]taggedOp, depth)
	return t
}

// step advances one cycle; in may be nil (bubble).
func (t *modalTree) step(in []int64, op taggedOp) (out BankResult, ok bool) {
	if t.occupied[t.depth-1] {
		top := t.ops[t.depth-1]
		out = BankResult{Kind: top.kind, Tag: top.tag, Value: t.levels[t.depth-1][0]}
		ok = true
	}
	for l := t.depth - 1; l >= 1; l-- {
		if t.occupied[l-1] {
			opl := t.ops[l-1]
			combineRow(t.levels[l], t.levels[l-1], func(a, b int64) int64 {
				return t.dispatch(opl.kind, t.width, a, b)
			})
			t.ops[l] = opl
		}
		t.occupied[l] = t.occupied[l-1]
	}
	if in != nil {
		if len(in) != t.p {
			panic(fmt.Sprintf("network: modalTree input length %d, want %d", len(in), t.p))
		}
		combineRow(t.levels[0], in, func(a, b int64) int64 {
			return t.dispatch(op.kind, t.width, a, b)
		})
		t.ops[0] = op
		t.occupied[0] = true
	} else {
		t.occupied[0] = false
	}
	return out, ok
}

// Bank is the complete broadcast/reduction network of section 6.4 as one
// structural unit: the pipelined broadcast stages (depth b), the PR read
// stage, and the five reduction units (depth r each), all advanced one
// clock per Step call. Each unit accepts at most one new operation per
// cycle (initiation rate 1); pushing two operations into the same unit in
// one cycle is a structural violation and panics.
//
// An operation pushed at cycle c emerges at cycle c + b + 1 + r: the
// instruction-level model's timing exactly (a reduction issued at t enters
// the bank at t+1, its result is forwardable at t + b + r + 2).
type Bank struct {
	p     int
	width uint
	b, r  int

	front []frontEntry

	logicT  *modalTree
	maxminT *modalTree
	sumT    *modalTree
	countT  *modalTree

	resolver *Resolver
	resQueue []taggedOp
}

type frontEntry struct {
	taggedOp
	leaves    []int64
	flagIn    []bool
	remaining int
}

// NewBank builds the full network for p PEs, broadcast arity k, and a data
// width (used for saturation, signed compares, and the AND inverters).
func NewBank(p, k int, width uint) *Bank {
	bk := &Bank{
		p:     p,
		width: width,
		b:     BroadcastLatency(p, k),
		r:     ReductionLatency(p),
	}
	bk.logicT = newModalTree(p, width, dispatchLogic)
	bk.maxminT = newModalTree(p, width, dispatchMaxMin)
	bk.sumT = newModalTree(p, width, dispatchSum)
	bk.countT = newModalTree(p, width, dispatchCount)
	bk.resolver = NewResolver(p)
	return bk
}

// Latency is the total pipeline depth: b broadcast stages, the PR read
// stage, and r reduction stages.
func (bk *Bank) Latency() int { return bk.b + 1 + bk.r }

// PushValues starts a value reduction (or/and/max/min/maxu/minu/sum) over
// the masked leaves. vals holds width-bit patterns; non-responders are
// replaced by the unit's Identity at the PE gating logic.
func (bk *Bank) PushValues(k isa.ReduceKind, tag int64, vals []int64, mask []bool) {
	if len(vals) != bk.p || len(mask) != bk.p {
		panic("network: Bank.PushValues length mismatch")
	}
	if k == isa.ReduceCount || k == isa.ReduceAny || k == isa.ReduceFirst {
		panic(fmt.Sprintf("network: PushValues with flag reduction %d", k))
	}
	ones := int64(1)<<bk.width - 1
	identity := Identity(k, bk.width) & ones
	leavesVec := make([]int64, bk.p)
	for i, v := range vals {
		switch {
		case !mask[i]:
			leavesVec[i] = identity
		case k == isa.ReduceAnd:
			leavesVec[i] = ^v & ones // input inverters
		default:
			leavesVec[i] = v & ones
		}
	}
	bk.push(frontEntry{taggedOp: taggedOp{kind: k, tag: tag}, leaves: leavesVec})
}

// PushFlags starts a flag reduction (count/any/first) over flag values
// gated by mask.
func (bk *Bank) PushFlags(k isa.ReduceKind, tag int64, flags, mask []bool) {
	if len(flags) != bk.p || len(mask) != bk.p {
		panic("network: Bank.PushFlags length mismatch")
	}
	responders := make([]bool, bk.p)
	for i := range flags {
		responders[i] = flags[i] && mask[i]
	}
	switch k {
	case isa.ReduceCount, isa.ReduceAny:
		leavesVec := make([]int64, bk.p)
		for i, rsp := range responders {
			if rsp {
				leavesVec[i] = 1
			}
		}
		bk.push(frontEntry{taggedOp: taggedOp{kind: k, tag: tag}, leaves: leavesVec})
	case isa.ReduceFirst:
		bk.push(frontEntry{taggedOp: taggedOp{kind: k, tag: tag}, flagIn: responders})
	default:
		panic(fmt.Sprintf("network: PushFlags with value reduction %d", k))
	}
}

func (bk *Bank) push(e frontEntry) {
	// Structural check: the broadcast network accepts one instruction per
	// cycle; Step consumes entries with remaining == front latency first.
	for _, f := range bk.front {
		if f.remaining == bk.b+1 {
			panic("network: Bank accepted two operations in one cycle (initiation rate violation)")
		}
	}
	e.remaining = bk.b + 1
	bk.front = append(bk.front, e)
}

// Step advances every unit one clock cycle and returns any results that
// emerged this cycle.
func (bk *Bank) Step() []BankResult {
	var results []BankResult

	// Advance the reduction units, feeding them any front entry that has
	// finished the broadcast+PR stages.
	var feedLogic, feedMaxMin, feedSum, feedCount []int64
	var feedLogicOp, feedMaxMinOp, feedSumOp, feedCountOp taggedOp
	var feedRes []bool
	keep := bk.front[:0]
	for _, f := range bk.front {
		f.remaining--
		if f.remaining > 0 {
			keep = append(keep, f)
			continue
		}
		switch f.kind {
		case isa.ReduceOr, isa.ReduceAnd:
			feedLogic, feedLogicOp = f.leaves, f.taggedOp
		case isa.ReduceMaxS, isa.ReduceMinS, isa.ReduceMaxU, isa.ReduceMinU:
			feedMaxMin, feedMaxMinOp = f.leaves, f.taggedOp
		case isa.ReduceSum:
			feedSum, feedSumOp = f.leaves, f.taggedOp
		case isa.ReduceCount, isa.ReduceAny:
			feedCount, feedCountOp = f.leaves, f.taggedOp
		case isa.ReduceFirst:
			feedRes = f.flagIn
			bk.resQueue = append(bk.resQueue, f.taggedOp)
		}
	}
	bk.front = keep

	ones := int64(1)<<bk.width - 1
	if out, ok := bk.logicT.step(feedLogic, feedLogicOp); ok {
		if out.Kind == isa.ReduceAnd {
			out.Value = ^out.Value & ones // output inverters
		}
		results = append(results, out)
	}
	if out, ok := bk.maxminT.step(feedMaxMin, feedMaxMinOp); ok {
		results = append(results, out)
	}
	if out, ok := bk.sumT.step(feedSum, feedSumOp); ok {
		out.Value &= ones
		results = append(results, out)
	}
	if out, ok := bk.countT.step(feedCount, feedCountOp); ok {
		if out.Kind == isa.ReduceAny && out.Value != 0 {
			out.Value = 1
		}
		out.Value &= ones // the count wraps at Width bits, like RCOUNT
		results = append(results, out)
	}
	if vec, ok := bk.resolver.Step(feedRes); ok {
		op := bk.resQueue[0]
		bk.resQueue = bk.resQueue[1:]
		results = append(results, BankResult{Kind: op.kind, Tag: op.tag, Vector: vec})
	}
	return results
}

func dispatchLogic(k isa.ReduceKind, width uint, a, b int64) int64 {
	// The logic unit is an OR tree; AND is handled by the bypassable
	// inverters outside the tree, so inside it is always OR.
	return a | b
}

func dispatchMaxMin(k isa.ReduceKind, width uint, a, b int64) int64 {
	sa := a << (64 - width) >> (64 - width)
	sb := b << (64 - width) >> (64 - width)
	switch k {
	case isa.ReduceMaxS:
		if sa > sb {
			return a
		}
		return b
	case isa.ReduceMinS:
		if sa < sb {
			return a
		}
		return b
	case isa.ReduceMaxU:
		if a > b {
			return a
		}
		return b
	case isa.ReduceMinU:
		if a < b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("network: bad max/min reduction %d", k))
}

func dispatchSum(k isa.ReduceKind, width uint, a, b int64) int64 {
	// Sign-extend the width-masked partial sums before saturating.
	sa := a << (64 - width) >> (64 - width)
	sb := b << (64 - width) >> (64 - width)
	return SatAdd(width)(sa, sb) & (int64(1)<<width - 1)
}

func dispatchCount(k isa.ReduceKind, width uint, a, b int64) int64 {
	return a + b // responder bits cannot overflow a count tree
}
