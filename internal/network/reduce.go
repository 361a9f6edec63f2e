package network

// Functional (combinational) reduction semantics. The instruction-level
// simulator uses these for architectural results, with timing supplied by
// BroadcastLatency/ReductionLatency. Each function is defined to match the
// corresponding structural tree exactly, including the handling of PEs that
// are not responders: a non-responder's leaf injects the operation's
// identity element, which is what the masking gates in front of the tree
// produce in hardware.
//
// Values are carried as int64. The machine layer is responsible for
// presenting operands in comparable form (sign- or zero-extended from the
// configured data width) and for masking results back to the width.

// Identity elements injected at masked-off leaves, exported so the machine's
// allocation-free reduction paths materialize the same leaf vectors the
// masking gates produce in hardware.

// OrIdentity is the masked-off leaf of the OR tree.
func OrIdentity() int64 { return 0 }

// AndIdentity is the masked-off leaf of the AND reduction (all ones).
func AndIdentity(width uint) int64 { return int64(1)<<width - 1 }

// MaxIdentitySigned is the masked-off leaf of the signed maximum unit.
func MaxIdentitySigned(width uint) int64 {
	return -(int64(1) << (width - 1)) // most negative representable
}

// MinIdentitySigned is the masked-off leaf of the signed minimum unit.
func MinIdentitySigned(width uint) int64 {
	return int64(1)<<(width-1) - 1 // most positive representable
}

// MaxIdentityUnsigned is the masked-off leaf of the unsigned maximum unit.
func MaxIdentityUnsigned() int64 { return 0 }

// MinIdentityUnsigned is the masked-off leaf of the unsigned minimum unit.
func MinIdentityUnsigned(width uint) int64 { return int64(1)<<width - 1 }

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

// treeFold reduces vals with combine using the same binary-tree topology as
// Bank's pipelined trees, so that functional and structural results agree
// even for non-associative-under-saturation operations like SatAdd.
func treeFold(vals []int64, combine CombineFunc) int64 {
	// Fold in place over one scratch copy: combineRow writes dst[i] from
	// src[2i], src[2i+1], and i <= 2i, so the prefix overwrite is safe.
	return FoldInPlace(append([]int64(nil), vals...), combine)
}

// FoldInPlace reduces buf with combine using the exact binary-tree topology
// of Bank's trees (pairs (2i, 2i+1) at every level, odd tails passed through),
// clobbering buf's prefix as scratch. It never allocates, which makes it the
// hot-path primitive behind the machine's reduction instructions.
//
// Sharding contract: the fold of a leaf vector can be computed piecewise.
// Split the vector into contiguous blocks of S = 2^k leaves, aligned at
// multiples of S (the final block may be short); FoldInPlace of each block
// yields exactly the level-k internal nodes of the global tree, and
// FoldInPlace over those block roots (in order) equals FoldInPlace over the
// whole vector. This holds for any CombineFunc, including node-saturating
// SatAdd, because aligned power-of-two blocks coincide with whole subtrees.
// The sharded parallel execution engine in internal/machine relies on this
// to merge per-shard partial accumulators bit-identically to the serial
// fold; TestFoldInPlaceSharding pins the property.
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
// instructions dispatch here once per instruction; the generic
// CombineFunc form remains for structural models and uncommon folds.

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

// FoldInPlaceMin reduces buf through the compare-select minimum tree.
func FoldInPlaceMin(buf []int64) int64 {
	if len(buf) == 0 {
		panic("network: FoldInPlaceMin of empty slice")
	}
	for n := len(buf); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n/2; i++ {
			a, b := buf[2*i], buf[2*i+1]
			if b < a {
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

// Combine functions of the reduction units, exported so callers (the
// machine's execution engines) can drive FoldInPlace without allocating
// closures per instruction. CombineMax/CombineMin use plain int64 compares:
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

// leaves materializes the masked leaf vector: vals[i] where mask[i], else
// the identity element.
func leaves(vals []int64, mask []bool, identity int64) []int64 {
	out := make([]int64, len(vals))
	for i, v := range vals {
		if mask[i] {
			out[i] = v
		} else {
			out[i] = identity
		}
	}
	return out
}

// ReduceOr returns the bitwise OR of vals over responders in mask.
// With zero responders the result is 0 (the OR identity).
func ReduceOr(vals []int64, mask []bool) int64 {
	return treeFold(leaves(vals, mask, OrIdentity()), func(a, b int64) int64 { return a | b })
}

// ReduceAnd returns the bitwise AND of vals over responders, computed the
// way the logic unit does: inverters, OR tree, inverters (De Morgan). With
// zero responders the result is the all-ones word for the width.
func ReduceAnd(vals []int64, mask []bool, width uint) int64 {
	ones := AndIdentity(width)
	inverted := make([]int64, len(vals))
	for i, v := range vals {
		if mask[i] {
			inverted[i] = ^v & ones
		} else {
			inverted[i] = 0 // identity of the OR tree
		}
	}
	or := treeFold(inverted, func(a, b int64) int64 { return a | b })
	return ^or & ones
}

// ReduceMax returns the signed maximum over responders. With zero
// responders it returns the most negative representable value.
func ReduceMax(vals []int64, mask []bool, width uint) int64 {
	return treeFold(leaves(vals, mask, MaxIdentitySigned(width)), func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// ReduceMin returns the signed minimum over responders. With zero
// responders it returns the most positive representable value.
func ReduceMin(vals []int64, mask []bool, width uint) int64 {
	return treeFold(leaves(vals, mask, MinIdentitySigned(width)), func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	})
}

// ReduceMaxU returns the unsigned maximum over responders (vals must be
// zero-extended). With zero responders it returns 0.
func ReduceMaxU(vals []int64, mask []bool) int64 {
	return treeFold(leaves(vals, mask, MaxIdentityUnsigned()), func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// ReduceMinU returns the unsigned minimum over responders. With zero
// responders it returns the all-ones word.
func ReduceMinU(vals []int64, mask []bool, width uint) int64 {
	return treeFold(leaves(vals, mask, MinIdentityUnsigned(width)), func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	})
}

// ReduceSum returns the saturating sum over responders, folding with the
// exact tree topology of the sum unit (node-level saturation).
func ReduceSum(vals []int64, mask []bool, width uint) int64 {
	return treeFold(leaves(vals, mask, 0), SatAdd(width))
}

// CountResponders returns the exact number of responders: flags[i] AND
// mask[i] (the response counter of section 6.4).
func CountResponders(flags, mask []bool) int64 {
	n := int64(0)
	for i, f := range flags {
		if f && mask[i] {
			n++
		}
	}
	return n
}

// AnyResponder reports whether any responder exists (the some/none test
// required by the ASC model).
func AnyResponder(flags, mask []bool) bool {
	for i, f := range flags {
		if f && mask[i] {
			return true
		}
	}
	return false
}

// FirstResponder returns the resolver output: a vector with exactly one bit
// set, at the lowest-indexed responder, or all zeros if there are none.
func FirstResponder(flags, mask []bool) []bool {
	out := make([]bool, len(flags))
	for i, f := range flags {
		if f && mask[i] {
			out[i] = true
			return out
		}
	}
	return out
}
