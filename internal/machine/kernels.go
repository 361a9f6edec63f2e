// PE-array kernels: every ALU op, compare condition, flag function, and
// reduction kind has its own tight loop over a contiguous range of PEs.
// Dispatch happens once per call — a switch on the decoded selector picks
// the loop — so no PE pays for a decision the instruction already made.
// The loops take operand planes as slices (register-major layout: one
// register of one thread over consecutive PEs), so the same kernel serves
// a solo machine and a run of side-by-side lanes of a gang's lane-major
// plane, whose operands span the run's PEs end to end.
//
// The hardwired registers are stored as their constant planes — p0 all
// zero, f0 all one — so a kernel never tests a register index per PE, and
// an unmasked op is simply one masked by f0.
//
// Each element function (aluAdd, condLT, ...) is written once and is
// inlined into its loops, the scalar ALU's lane loop (sl, gang.go)
// included; the branch unit calls the comparisons through condFns. The
// reference interpreter (ref.go) keeps its own independent definitions,
// which is what makes it an oracle.
//
// This file is in the hot-path lint set: dispatch keys on precomputed
// micro-op selector fields only.
package machine

import (
	"repro/internal/isa"
	"repro/internal/network"
)

// width holds the constants of a data width that the kernels need.
type width struct {
	bits uint  // the data width w
	ones int64 // 2^w - 1: the width mask, and the all-ones pattern
	sh   uint  // 64 - w: the shift pair that sign-extends a pattern
}

func newWidth(w uint) width { return width{bits: w, ones: int64(1)<<w - 1, sh: 64 - w} }

// sx sign-extends a width-masked bit pattern.
func (w width) sx(v int64) int64 { return v << w.sh >> w.sh }

// b2i is a comparison's 0/1 result as a word.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ALU functions on width-masked bit patterns. Division by zero follows the
// RISC-V convention: the quotient is all ones and the remainder is the
// dividend. There is no divide trap.
func aluAdd(a, b int64, w width) int64 { return (a + b) & w.ones }
func aluSub(a, b int64, w width) int64 { return (a - b) & w.ones }
func aluAnd(a, b int64, _ width) int64 { return a & b }
func aluOr(a, b int64, _ width) int64  { return a | b }
func aluXor(a, b int64, _ width) int64 { return a ^ b }
func aluSll(a, b int64, w width) int64 {
	if s := uint(b) % 64; s < w.bits {
		return (a << s) & w.ones
	}
	return 0
}
func aluSrl(a, b int64, w width) int64 {
	if s := uint(b) % 64; s < w.bits {
		return a >> s
	}
	return 0
}
func aluSra(a, b int64, w width) int64  { return (w.sx(a) >> min(uint(b)%64, w.bits-1)) & w.ones }
func aluSlt(a, b int64, w width) int64  { return b2i(w.sx(a) < w.sx(b)) }
func aluSltu(a, b int64, _ width) int64 { return b2i(a < b) }
func aluMul(a, b int64, w width) int64  { return (w.sx(a) * w.sx(b)) & w.ones }
func aluDiv(a, b int64, w width) int64 {
	if sb := w.sx(b); sb != 0 {
		return (w.sx(a) / sb) & w.ones
	}
	return w.ones
}
func aluMod(a, b int64, w width) int64 {
	sa := w.sx(a)
	if sb := w.sx(b); sb != 0 {
		return (sa % sb) & w.ones
	}
	return sa & w.ones
}

// Comparisons on width-masked bit patterns, shared by branches and
// parallel compares. The U variants compare raw patterns; the rest
// sign-extend first.
func condEQ(a, b int64, _ width) bool  { return a == b }
func condNE(a, b int64, _ width) bool  { return a != b }
func condLT(a, b int64, w width) bool  { return w.sx(a) < w.sx(b) }
func condLE(a, b int64, w width) bool  { return w.sx(a) <= w.sx(b) }
func condGT(a, b int64, w width) bool  { return w.sx(a) > w.sx(b) }
func condGE(a, b int64, w width) bool  { return w.sx(a) >= w.sx(b) }
func condLTU(a, b int64, _ width) bool { return a < b }
func condLEU(a, b int64, _ width) bool { return a <= b }
func condGTU(a, b int64, _ width) bool { return a > b }
func condGEU(a, b int64, _ width) bool { return a >= b }

// condFns is the branch unit's view of the comparisons.
var condFns = [...]func(a, b int64, w width) bool{
	isa.CondEQ: condEQ, isa.CondNE: condNE, isa.CondLT: condLT, isa.CondLE: condLE,
	isa.CondGT: condGT, isa.CondGE: condGE, isa.CondLTU: condLTU, isa.CondLEU: condLEU,
	isa.CondGTU: condGTU, isa.CondGEU: condGEU,
}

// Flag-logic functions. FNOT and FMOV ignore b; FSET and FCLR ignore both.
func flagAnd(a, b bool) bool    { return a && b }
func flagOr(a, b bool) bool     { return a || b }
func flagXor(a, b bool) bool    { return a != b }
func flagAndNot(a, b bool) bool { return a && !b }
func flagNot(a, _ bool) bool    { return !a }
func flagMov(a, _ bool) bool    { return a }
func flagSet(_, _ bool) bool    { return true }
func flagClr(_, _ bool) bool    { return false }

// The loop shapes. Each is small enough to inline, and its function
// argument is a constant at every call site below, so each call site
// compiles to a loop with the element function inlined. Operands are
// re-sliced to len(dst) up front so the loop body carries no bounds checks.

// vv is dst[i] = f(a[i], b[i]) where mask[i]: a register-B ALU op.
func vv(f func(a, b int64, w width) int64, w width, dst, a, b []int64, mask []bool) {
	a, b, mask = a[:len(dst)], b[:len(dst)], mask[:len(dst)]
	for i := range dst {
		if mask[i] {
			dst[i] = f(a[i], b[i], w)
		}
	}
}

// vs is dst[i] = f(a[i], b[s]) where mask[i], for i in segment s of the
// len(b) equal segments of dst: a broadcast- or immediate-B ALU op, with
// one B per lane of a run (or one for the whole run).
func vs(f func(a, b int64, w width) int64, w width, dst, a, b []int64, mask []bool) {
	n, i := len(dst)/len(b), 0
	a, mask = a[:len(dst)], mask[:len(dst)]
	for _, bv := range b {
		for e := i + n; i < e; i++ {
			if mask[i] {
				dst[i] = f(a[i], bv, w)
			}
		}
	}
}

// cvv is dst[i] = f(a[i], b[i]) where mask[i]: a register-B compare.
func cvv(f func(a, b int64, w width) bool, w width, dst []bool, a, b []int64, mask []bool) {
	a, b, mask = a[:len(dst)], b[:len(dst)], mask[:len(dst)]
	for i := range dst {
		if mask[i] {
			dst[i] = f(a[i], b[i], w)
		}
	}
}

// cvs is dst[i] = f(a[i], b[s]) where mask[i], for i in segment s of the
// len(b) equal segments of dst: a broadcast-B compare, one B per lane.
func cvs(f func(a, b int64, w width) bool, w width, dst []bool, a, b []int64, mask []bool) {
	n, i := len(dst)/len(b), 0
	a, mask = a[:len(dst)], mask[:len(dst)]
	for _, bv := range b {
		for e := i + n; i < e; i++ {
			if mask[i] {
				dst[i] = f(a[i], bv, w)
			}
		}
	}
}

// ff is dst[i] = f(a[i], b[i]) where mask[i]: flag logic.
func ff(f func(a, b bool) bool, dst, a, b, mask []bool) {
	a, b, mask = a[:len(dst)], b[:len(dst)], mask[:len(dst)]
	for i := range dst {
		if mask[i] {
			dst[i] = f(a[i], b[i])
		}
	}
}

// aluVV runs ALU op over PEs with a register B operand.
func aluVV(op isa.ALUOp, w width, dst, a, b []int64, mask []bool) {
	switch op {
	case isa.ALUAdd:
		vv(aluAdd, w, dst, a, b, mask)
	case isa.ALUSub:
		vv(aluSub, w, dst, a, b, mask)
	case isa.ALUAnd:
		vv(aluAnd, w, dst, a, b, mask)
	case isa.ALUOr:
		vv(aluOr, w, dst, a, b, mask)
	case isa.ALUXor:
		vv(aluXor, w, dst, a, b, mask)
	case isa.ALUSll:
		vv(aluSll, w, dst, a, b, mask)
	case isa.ALUSrl:
		vv(aluSrl, w, dst, a, b, mask)
	case isa.ALUSra:
		vv(aluSra, w, dst, a, b, mask)
	case isa.ALUSlt:
		vv(aluSlt, w, dst, a, b, mask)
	case isa.ALUSltu:
		vv(aluSltu, w, dst, a, b, mask)
	case isa.ALUMul:
		vv(aluMul, w, dst, a, b, mask)
	case isa.ALUDiv:
		vv(aluDiv, w, dst, a, b, mask)
	case isa.ALUMod:
		vv(aluMod, w, dst, a, b, mask)
	}
}

// aluVS runs ALU op over PEs with a broadcast or immediate B operand, one
// B per segment (see vs).
func aluVS(op isa.ALUOp, w width, dst, a, b []int64, mask []bool) {
	switch op {
	case isa.ALUAdd:
		vs(aluAdd, w, dst, a, b, mask)
	case isa.ALUSub:
		vs(aluSub, w, dst, a, b, mask)
	case isa.ALUAnd:
		vs(aluAnd, w, dst, a, b, mask)
	case isa.ALUOr:
		vs(aluOr, w, dst, a, b, mask)
	case isa.ALUXor:
		vs(aluXor, w, dst, a, b, mask)
	case isa.ALUSll:
		vs(aluSll, w, dst, a, b, mask)
	case isa.ALUSrl:
		vs(aluSrl, w, dst, a, b, mask)
	case isa.ALUSra:
		vs(aluSra, w, dst, a, b, mask)
	case isa.ALUSlt:
		vs(aluSlt, w, dst, a, b, mask)
	case isa.ALUSltu:
		vs(aluSltu, w, dst, a, b, mask)
	case isa.ALUMul:
		vs(aluMul, w, dst, a, b, mask)
	case isa.ALUDiv:
		vs(aluDiv, w, dst, a, b, mask)
	case isa.ALUMod:
		vs(aluMod, w, dst, a, b, mask)
	}
}

// cmpVV runs compare c over PEs with a register B operand.
func cmpVV(c isa.Cond, w width, dst []bool, a, b []int64, mask []bool) {
	switch c {
	case isa.CondEQ:
		cvv(condEQ, w, dst, a, b, mask)
	case isa.CondNE:
		cvv(condNE, w, dst, a, b, mask)
	case isa.CondLT:
		cvv(condLT, w, dst, a, b, mask)
	case isa.CondLE:
		cvv(condLE, w, dst, a, b, mask)
	case isa.CondGT:
		cvv(condGT, w, dst, a, b, mask)
	case isa.CondGE:
		cvv(condGE, w, dst, a, b, mask)
	case isa.CondLTU:
		cvv(condLTU, w, dst, a, b, mask)
	case isa.CondLEU:
		cvv(condLEU, w, dst, a, b, mask)
	case isa.CondGTU:
		cvv(condGTU, w, dst, a, b, mask)
	case isa.CondGEU:
		cvv(condGEU, w, dst, a, b, mask)
	}
}

// cmpVS runs compare c over PEs against a broadcast scalar, one per
// segment (see cvs).
func cmpVS(c isa.Cond, w width, dst []bool, a, b []int64, mask []bool) {
	switch c {
	case isa.CondEQ:
		cvs(condEQ, w, dst, a, b, mask)
	case isa.CondNE:
		cvs(condNE, w, dst, a, b, mask)
	case isa.CondLT:
		cvs(condLT, w, dst, a, b, mask)
	case isa.CondLE:
		cvs(condLE, w, dst, a, b, mask)
	case isa.CondGT:
		cvs(condGT, w, dst, a, b, mask)
	case isa.CondGE:
		cvs(condGE, w, dst, a, b, mask)
	case isa.CondLTU:
		cvs(condLTU, w, dst, a, b, mask)
	case isa.CondLEU:
		cvs(condLEU, w, dst, a, b, mask)
	case isa.CondGTU:
		cvs(condGTU, w, dst, a, b, mask)
	case isa.CondGEU:
		cvs(condGEU, w, dst, a, b, mask)
	}
}

// flagOp runs flag function fn over PEs.
func flagOp(fn isa.FlagFn, dst, a, b, mask []bool) {
	switch fn {
	case isa.FlagAnd:
		ff(flagAnd, dst, a, b, mask)
	case isa.FlagOr:
		ff(flagOr, dst, a, b, mask)
	case isa.FlagXor:
		ff(flagXor, dst, a, b, mask)
	case isa.FlagAndNot:
		ff(flagAndNot, dst, a, b, mask)
	case isa.FlagNot:
		ff(flagNot, dst, a, b, mask)
	case isa.FlagMov:
		ff(flagMov, dst, a, b, mask)
	case isa.FlagSet:
		ff(flagSet, dst, a, b, mask)
	case isa.FlagClr:
		ff(flagClr, dst, a, b, mask)
	}
}

// Reductions. OR, AND, MAX and MIN are associative and commutative, so a
// single masked pass yields exactly what the hardware tree computes: the
// non-responders' identity elements drop out. Each returns the value in
// its leaf domain (sign-extended for the signed kinds); reduceSeg masks it
// to the data width. Only the node-saturating sum depends on the tree's
// topology (sumTree).

func foldOr(v []int64, resp []bool) int64 {
	var acc int64
	for i, x := range v[:len(resp)] {
		if resp[i] {
			acc |= x
		}
	}
	return acc
}

func foldAnd(v []int64, resp []bool, w width) int64 {
	acc := w.ones
	for i, x := range v[:len(resp)] {
		if resp[i] {
			acc &= x
		}
	}
	return acc
}

// foldMax is the maximum over responders of v, sign-extended by sh (0 for
// the unsigned unit), starting from the identity.
func foldMax(v []int64, resp []bool, sh uint, ident int64) int64 {
	acc := ident
	for i, x := range v[:len(resp)] {
		if x = x << sh >> sh; resp[i] && x > acc {
			acc = x
		}
	}
	return acc
}

// foldMin is foldMax's minimum twin.
func foldMin(v []int64, resp []bool, sh uint, ident int64) int64 {
	acc := ident
	for i, x := range v[:len(resp)] {
		if x = x << sh >> sh; resp[i] && x < acc {
			acc = x
		}
	}
	return acc
}

// reduceSeg is the value reduction k delivers over one lane: the PE
// segment of its operand span that starts at o — a, the flag operand, for
// RCOUNT, RANY and RFIRST; v, the word operand, for the rest; the other is
// nil — with responders resp, the segment's mask flags. RFIRST's value is
// the winning PE, len(resp) when none responds; the others are masked to
// the data width. OR, AND, MAX and MIN fold in one masked pass; the
// node-saturating sum folds its leaves in leaves over the exact binary-tree
// topology of the hardware unit.
func reduceSeg(k isa.ReduceKind, w width, a []bool, v []int64, o int, resp []bool, leaves []int64) int64 {
	e := o + len(resp)
	var x int64
	switch k {
	case isa.ReduceFirst:
		return int64(firstResp(a[o:e], resp))
	case isa.ReduceCount:
		x = countResp(a[o:e], resp)
	case isa.ReduceAny:
		x = b2i(firstResp(a[o:e], resp) < len(resp))
	case isa.ReduceSum:
		x = sumTree(w, v[o:e], resp, leaves)
	case isa.ReduceOr:
		x = foldOr(v[o:e], resp)
	case isa.ReduceAnd:
		x = foldAnd(v[o:e], resp, w)
	case isa.ReduceMaxS:
		x = foldMax(v[o:e], resp, w.sh, network.Identity(k, w.bits))
	case isa.ReduceMinS:
		x = foldMin(v[o:e], resp, w.sh, network.Identity(k, w.bits))
	case isa.ReduceMaxU:
		x = foldMax(v[o:e], resp, 0, 0)
	default: // isa.ReduceMinU
		x = foldMin(v[o:e], resp, 0, w.ones)
	}
	return x & w.ones
}

// sumTree folds the node-saturating sum over the exact binary tree: the
// leaves (sign-extended responders, zero elsewhere) go to leaves, which
// the fold consumes in place.
func sumTree(w width, v []int64, resp []bool, leaves []int64) int64 {
	leaves = leaves[:len(resp)]
	for i, x := range v[:len(resp)] {
		if resp[i] {
			leaves[i] = w.sx(x)
		} else {
			leaves[i] = 0
		}
	}
	lo, hi := network.SatLimits(w.bits)
	return network.FoldInPlaceSatAdd(leaves, lo, hi)
}

// countResp counts the PEs where both a and mask are set: the response
// counter of section 6.4.
func countResp(a, mask []bool) int64 {
	var n int64
	for i, x := range a[:len(mask)] {
		if x && mask[i] {
			n++
		}
	}
	return n
}

// firstResp returns the index of the first PE where both a and mask are
// set, or len(mask): the multiple response resolver.
func firstResp(a, mask []bool) int {
	for i, x := range a[:len(mask)] {
		if x && mask[i] {
			return i
		}
	}
	return len(mask)
}
