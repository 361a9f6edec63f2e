// Package network models the pipelined broadcast/reduction network of the
// MTASC processor (Schaffer & Walker 2007, sections 4 and 6.4).
//
// The broadcast network is a k-ary tree with a register at each node: it
// accepts a new operation every clock cycle and delivers it to the PE array
// after ceil(log_k p) cycles. The reduction network is a set of pipelined
// binary trees, one per reduction function, each with an initiation rate of
// one operation per cycle and a latency of ceil(log2 p) cycles:
//
//   - logic unit: bitwise OR tree with bypassable inverters before and after
//     the tree (AND is computed via De Morgan's law),
//   - maximum/minimum unit: signed/unsigned compare-select tree,
//   - sum unit: saturating adder tree,
//   - response counter: adder tree over responder bits (exact count),
//   - multiple response resolver: parallel prefix network that isolates the
//     first responder; uniquely, its output is a parallel value.
//
// Two model granularities are provided. The structural model is Bank
// (bank.go): every reduction unit behind the broadcast stages, with a
// register file per tree level, stepped one cycle at a time. It is the
// ground truth for latency and initiation rate. The in-place folds
// (FoldInPlace*, reduce.go) compute a tree's root combinationally; the
// machine's reduction instructions fold through them, with latencies taken
// from BroadcastLatency and ReductionLatency. Reductions are named by
// isa.ReduceKind, and the masked-off leaf of every tree is Identity. The
// core's structural co-simulation replays every reduction through Bank and
// checks each result against the value the machine computed.
package network

import "fmt"

// BroadcastLatency returns b, the pipeline depth of a k-ary broadcast tree
// over p PEs: ceil(log_k p), and at least 1 (there is always at least the
// network output register between the control unit and the PE array).
func BroadcastLatency(p, k int) int {
	if p < 1 || k < 2 {
		panic(fmt.Sprintf("network: invalid broadcast tree p=%d k=%d", p, k))
	}
	return max(ceilLog(p, k), 1)
}

// ceilLog returns ceil(log_k p) for p >= 1, k >= 2. The power stops
// growing once one more factor of k reaches p, so it never overflows, not
// even for p near MaxInt.
func ceilLog(p, k int) int {
	d := 0
	for n := 1; n < p; n *= k {
		d++
		if n > (p-1)/k {
			break
		}
	}
	return d
}

// ReductionLatency returns r, the pipeline depth of a binary reduction tree
// over p PEs: ceil(log2 p), and at least 1.
func ReductionLatency(p int) int {
	if p < 1 {
		panic(fmt.Sprintf("network: invalid reduction tree p=%d", p))
	}
	return max(ceilLog(p, 2), 1)
}

// BroadcastNodes returns the number of internal nodes (registers) in a k-ary
// broadcast tree over p leaves, used by the FPGA resource model.
func BroadcastNodes(p, k int) int {
	if p <= 1 {
		return 1
	}
	nodes := 0
	// Count the registers level by level from the PE side up to the root.
	for width := p; width > 1; width = (width + k - 1) / k {
		nodes += (width + k - 1) / k
	}
	return nodes
}

// ReduceNodes returns the number of combine nodes in a binary reduction tree
// over p leaves.
func ReduceNodes(p int) int {
	if p <= 1 {
		return 1
	}
	return p - 1
}

// CombineFunc combines two values at a reduction tree node.
type CombineFunc func(a, b int64) int64

// combineRow fills dst[i] = combine(src[2i], src[2i+1]), passing odd tails
// through unchanged.
func combineRow(dst, src []int64, combine CombineFunc) {
	n := len(src)
	for i := 0; i < n/2; i++ {
		dst[i] = combine(src[2*i], src[2*i+1])
	}
	if n%2 == 1 {
		dst[n/2] = src[n-1]
	}
}

// Resolver is a structural model of the multiple response resolver: a
// pipelined parallel prefix (scan) network that outputs, for each PE, whether
// it is the first responder. Unlike the other reduction units its output is
// a parallel value (section 6.4).
type Resolver struct {
	p     int
	depth int
	// Each stage register holds the responder vector and its running
	// exclusive prefix OR.
	stages []resolverStage
	valid  []bool
}

type resolverStage struct {
	resp   []bool // original responder bits, carried along
	prefix []bool // inclusive prefix OR computed so far
}

// NewResolver builds a resolver over p PEs.
func NewResolver(p int) *Resolver {
	if p < 1 {
		panic("network: resolver needs p >= 1")
	}
	depth := ReductionLatency(p)
	r := &Resolver{p: p, depth: depth, valid: make([]bool, depth)}
	r.stages = make([]resolverStage, depth)
	for i := range r.stages {
		r.stages[i] = resolverStage{resp: make([]bool, p), prefix: make([]bool, p)}
	}
	return r
}

// Step advances one clock cycle. If in is non-nil it must have length p.
// The return values are the first-responder vector emerging this cycle
// (valid only until the next Step) and whether one emerged.
func (r *Resolver) Step(in []bool) (out []bool, ok bool) {
	last := r.stages[r.depth-1]
	ok = r.valid[r.depth-1]
	if ok {
		// out[i] = resp[i] AND NOT (inclusive prefix up to i-1).
		out = make([]bool, r.p)
		for i := 0; i < r.p; i++ {
			first := last.resp[i]
			if i > 0 && last.prefix[i-1] {
				first = false
			}
			out[i] = first
		}
	}
	// Kogge-Stone doubling step s combines with offset 2^s.
	for l := r.depth - 1; l >= 1; l-- {
		prev := r.stages[l-1]
		cur := &r.stages[l]
		copy(cur.resp, prev.resp)
		offset := 1 << uint(l)
		for i := 0; i < r.p; i++ {
			v := prev.prefix[i]
			if i >= offset && prev.prefix[i-offset] {
				v = true
			}
			cur.prefix[i] = v
		}
		r.valid[l] = r.valid[l-1]
	}
	if in != nil {
		if len(in) != r.p {
			panic(fmt.Sprintf("network: Resolver.Step input length %d, want %d", len(in), r.p))
		}
		st := &r.stages[0]
		copy(st.resp, in)
		// Stage 0 applies offset 1.
		for i := 0; i < r.p; i++ {
			v := in[i]
			if i >= 1 && in[i-1] {
				v = true
			}
			st.prefix[i] = v
		}
		r.valid[0] = true
	} else {
		r.valid[0] = false
	}
	return out, ok
}
