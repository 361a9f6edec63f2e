package network

import "repro/internal/isa"

// The reduction units' node functions and their in-place folds. The
// machine's reduction instructions fold through the specialized
// FoldInPlace* kernels and machine.ExecRef through the generic FoldInPlace.
// Every fold has the exact pairwise topology of Bank's register-per-level
// trees, which matters for the node-saturating sum.
//
// Values are carried as int64. Callers present operands in comparable form
// (sign- or zero-extended from the configured data width) and mask results
// back to the width.

// Identity returns the leaf a masked-off PE injects into the tree of
// reduction kind k at a data width: what the masking gates in front of the
// hardware tree produce. Leaves are in the tree's own domain: RAND's leaves
// are inverted and fold through the OR tree, so its identity is the OR
// identity 0, and the signed max/min identities are sign-extended. The
// response counter's identity is 0 too.
func Identity(k isa.ReduceKind, width uint) int64 {
	switch k {
	case isa.ReduceMaxS:
		return -(int64(1) << (width - 1)) // most negative representable
	case isa.ReduceMinS:
		return int64(1)<<(width-1) - 1 // most positive representable
	case isa.ReduceMinU:
		return int64(1)<<width - 1 // all ones
	}
	return 0
}

// SatLimits returns the saturating bounds of the sum unit for a data width.
func SatLimits(width uint) (lo, hi int64) {
	return -(int64(1) << (width - 1)), int64(1)<<(width-1) - 1
}

// SatAdd is the saturating addition performed at each node of the sum unit.
func SatAdd(width uint) CombineFunc {
	lo, hi := SatLimits(width)
	return func(a, b int64) int64 {
		s := a + b
		if s < lo {
			return lo
		}
		if s > hi {
			return hi
		}
		return s
	}
}

// FoldInPlace reduces buf with combine using the exact binary-tree topology
// of Bank's trees (pairs (2i, 2i+1) at every level, odd tails passed through),
// clobbering buf's prefix as scratch. It never allocates. machine.ExecRef
// folds through it; the machine's instructions use the specialized kernels
// below.
//
// Because the topology is fixed, the node-saturating SatAdd, which is not
// associative, saturates exactly where the hardware tree does: the
// machine's sum kernel (sumTree, through FoldInPlaceSatAdd) relies on
// this. The fold can also be computed piecewise: FoldInPlace over the
// roots of aligned blocks of 2^k leaves equals FoldInPlace over the whole
// vector, because such blocks are whole subtrees (TestFoldInPlaceSharding
// pins the property).
func FoldInPlace(buf []int64, combine CombineFunc) int64 {
	if len(buf) == 0 {
		panic("network: FoldInPlace of empty slice")
	}
	for n := len(buf); n > 1; n = (n + 1) / 2 {
		combineRow(buf[:(n+1)/2], buf[:n], combine)
	}
	return buf[0]
}

// Specialized in-place folds for the fixed node functions of the hardware
// reduction units. Each is FoldInPlace with the combine inlined into the
// row loop: the pairwise topology (pairs (2i, 2i+1) per level, odd tails
// passed through) is identical, so results are bit-identical to the
// generic fold — including node-level saturation — while the hot path
// pays no indirect call per tree node. The machine's reduction
// instructions dispatch here once per instruction.

// FoldInPlaceOr reduces buf through the OR tree (logic unit).
func FoldInPlaceOr(buf []int64) int64 {
	if len(buf) == 0 {
		panic("network: FoldInPlaceOr of empty slice")
	}
	for n := len(buf); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n/2; i++ {
			buf[i] = buf[2*i] | buf[2*i+1]
		}
		if n%2 == 1 {
			buf[n/2] = buf[n-1]
		}
	}
	return buf[0]
}

// FoldInPlaceMax reduces buf through the compare-select maximum tree. Plain
// int64 compares serve both the signed tree (operands sign-extended) and
// the unsigned tree (operands zero-extended, hence non-negative).
func FoldInPlaceMax(buf []int64) int64 {
	if len(buf) == 0 {
		panic("network: FoldInPlaceMax of empty slice")
	}
	for n := len(buf); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n/2; i++ {
			a, b := buf[2*i], buf[2*i+1]
			if b > a {
				a = b
			}
			buf[i] = a
		}
		if n%2 == 1 {
			buf[n/2] = buf[n-1]
		}
	}
	return buf[0]
}

// FoldInPlaceSatAdd reduces buf through the sum unit's saturating adder
// tree; lo and hi are the SatLimits of the data width.
func FoldInPlaceSatAdd(buf []int64, lo, hi int64) int64 {
	if len(buf) == 0 {
		panic("network: FoldInPlaceSatAdd of empty slice")
	}
	for n := len(buf); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n/2; i++ {
			s := buf[2*i] + buf[2*i+1]
			if s < lo {
				s = lo
			} else if s > hi {
				s = hi
			}
			buf[i] = s
		}
		if n%2 == 1 {
			buf[n/2] = buf[n-1]
		}
	}
	return buf[0]
}

// Combine functions of the reduction units, exported so machine.ExecRef
// can drive FoldInPlace without allocating closures per instruction. CombineMax/CombineMin use plain int64 compares:
// they serve both the signed trees (operands sign-extended) and the unsigned
// trees (operands zero-extended, hence non-negative and order-preserving).

// CombineOr is the OR-tree node function (logic unit).
func CombineOr(a, b int64) int64 { return a | b }

// CombineMax is the compare-select node of the maximum unit.
func CombineMax(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// CombineMin is the compare-select node of the minimum unit.
func CombineMin(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
