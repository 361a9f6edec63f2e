// PE-array kernels: every ALU op, compare condition, flag function, and
// reduction kind has its own tight loop over a contiguous range of PEs.
// Dispatch happens once per call — a switch on the decoded selector picks
// the loop; an ALU op switches once per nonzero mask word — so no PE pays
// for a decision the instruction already made.
// The loops take operand planes as slices (register-major layout: one
// register of one thread over consecutive PEs), so the same kernel serves
// a solo machine and a run of side-by-side lanes of a gang's lane-major
// plane, whose operands span the run's PEs end to end.
//
// Flags are packed 64 PEs to a uint64 word (see Machine): a kernel's flag
// operands are whole register rows plus the bit span [lo, hi) its PEs
// occupy, the same span in every row. Flag logic is one masked word op per
// 64 PEs, d = d&^m | f(a, b)&m, with the span's edge words restored
// outside the span; the response counter is a population count and the
// resolver a trailing-zero count. A compare evaluates its PEs into a byte
// per PE, then packs each 64 into a word stored under the mask. The value
// kernels read their mask as a view of whole words that start at their
// first PE (maskView) and walk it a word at a time: an empty word is
// skipped, and each run of set bits in a word is one unmasked loop, so a
// full word is one 64-PE loop and a one-hot mask reads one PE.
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
	"encoding/binary"
	"math/bits"

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

// sx sign-extends a width-masked bit pattern. The shift count, 64 - w, is
// below 64; masking it with 63 lets the compiler drop the code Go's shift
// semantics need for larger counts. redMax and redMin do the same.
func (w width) sx(v int64) int64 { return v << (w.sh & 63) >> (w.sh & 63) }

// b2i is a comparison's 0/1 result as a word.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// b2u8 is a comparison's 0/1 result as a byte.
func b2u8(b bool) uint8 {
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

// aluB is B itself: PLI's element function, a move of the immediate.
func aluB(_, b int64, _ width) int64 { return b }

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

// Flag-logic functions, on 64 PEs at once. FNOT and FMOV ignore b; FSET
// and FCLR ignore both.
func flagAnd(a, b uint64) uint64    { return a & b }
func flagOr(a, b uint64) uint64     { return a | b }
func flagXor(a, b uint64) uint64    { return a ^ b }
func flagAndNot(a, b uint64) uint64 { return a &^ b }
func flagNot(a, _ uint64) uint64    { return ^a }
func flagMov(a, _ uint64) uint64    { return a }
func flagSet(_, _ uint64) uint64    { return ^uint64(0) }
func flagClr(_, _ uint64) uint64    { return 0 }

// The loop shapes. Each is small enough to inline, and its function
// argument is a constant at every call site below, so each call site
// compiles to a loop with the element function inlined. A shape takes the
// PEs a mask selects as words of a mask view (maskView) and runs one
// unmasked loop per run of set bits in a word, found with a carry: x +
// x&-x clears x's lowest run of ones and sets the bit just above it. A
// full word is one 64-PE loop, and a one-hot word touches one PE. The ALU
// shapes take one word, the PEs i+j for the set bits j of x, and their
// callers walk the view, skip zero words and pick the op's shape per word
// (with the walk inside, they would be too large to inline); fold takes
// the whole view.

// vv is dst[j] = f(a[j], b[j]) for each PE j that word x selects: a
// register-B ALU op.
func vv(f func(a, b int64, w width) int64, w width, dst, a, b []int64, i int, x uint64) {
	for x != 0 {
		y := x + x&-x
		lo, hi := i+bits.TrailingZeros64(x), i+bits.TrailingZeros64(y)
		x &= y
		for j := lo; j < hi; j++ {
			dst[j] = f(a[j], b[j], w)
		}
	}
}

// vs is dst[j] = f(a[j], bv) for each PE j that word x selects: a
// broadcast- or immediate-B ALU op.
func vs(f func(a, b int64, w width) int64, w width, dst, a []int64, bv int64, i int, x uint64) {
	for x != 0 {
		y := x + x&-x
		lo, hi := i+bits.TrailingZeros64(x), i+bits.TrailingZeros64(y)
		x &= y
		for j := lo; j < hi; j++ {
			dst[j] = f(a[j], bv, w)
		}
	}
}

// cvv is out[i] = f(a[i], b[i]) as a 0/1 byte for every PE of the span: a
// register-B compare, stored under its mask by storeCompare. Evaluating
// every PE costs no branch on the mask.
func cvv(f func(a, b int64, w width) bool, w width, out []uint8, a, b []int64) {
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = b2u8(f(a[i], b[i], w))
	}
}

// cvs is out[i] = f(a[i], b[s]) as a 0/1 byte, for i in segment s of the
// len(b) equal segments of out: a broadcast-B compare, one B per lane.
func cvs(f func(a, b int64, w width) bool, w width, out []uint8, a, b []int64) {
	n, i := len(out)/len(b), 0
	a = a[:len(out)]
	for _, bv := range b {
		for e := i + n; i < e; i++ {
			out[i] = b2u8(f(a[i], bv, w))
		}
	}
}

// ff is dst = dst&^mask | f(a, b)&mask, word by word: flag logic.
func ff(f func(a, b uint64) uint64, dst, a, b, mask []uint64) {
	a, b, mask = a[:len(dst)], b[:len(dst)], mask[:len(dst)]
	for i, m := range mask {
		dst[i] = dst[i]&^m | f(a[i], b[i])&m
	}
}

// aluVV runs ALU op over the PEs the mask view selects with a register B
// operand.
func aluVV(op isa.ALUOp, w width, dst, a, b []int64, mask []uint64) {
	a, b = a[:len(dst)], b[:len(dst)] // one bounds check per PE covers all three
	for k, x := range mask {
		if x == 0 {
			continue
		}
		i := k << 6
		switch op {
		case isa.ALUAdd:
			vv(aluAdd, w, dst, a, b, i, x)
		case isa.ALUSub:
			vv(aluSub, w, dst, a, b, i, x)
		case isa.ALUAnd:
			vv(aluAnd, w, dst, a, b, i, x)
		case isa.ALUOr:
			vv(aluOr, w, dst, a, b, i, x)
		case isa.ALUXor:
			vv(aluXor, w, dst, a, b, i, x)
		case isa.ALUSll:
			vv(aluSll, w, dst, a, b, i, x)
		case isa.ALUSrl:
			vv(aluSrl, w, dst, a, b, i, x)
		case isa.ALUSra:
			vv(aluSra, w, dst, a, b, i, x)
		case isa.ALUSlt:
			vv(aluSlt, w, dst, a, b, i, x)
		case isa.ALUSltu:
			vv(aluSltu, w, dst, a, b, i, x)
		case isa.ALUMul:
			vv(aluMul, w, dst, a, b, i, x)
		case isa.ALUDiv:
			vv(aluDiv, w, dst, a, b, i, x)
		case isa.ALUMod:
			vv(aluMod, w, dst, a, b, i, x)
		}
	}
}

// aluVS is aluVV with a broadcast or immediate B operand, one B per
// segment of seg PEs: per lane of a run, or one for the whole run. Each
// segment takes the same number of the view's words.
func aluVS(op isa.ALUOp, w width, dst, a, b []int64, seg int, mask []uint64) {
	ws := len(mask) / len(b)
	a = a[:len(dst)]
	for s, bv := range b {
		for k, x := range mask[s*ws : (s+1)*ws] {
			if x == 0 {
				continue
			}
			i := s*seg + k<<6
			switch op {
			case isa.ALUAdd:
				vs(aluAdd, w, dst, a, bv, i, x)
			case isa.ALUSub:
				vs(aluSub, w, dst, a, bv, i, x)
			case isa.ALUAnd:
				vs(aluAnd, w, dst, a, bv, i, x)
			case isa.ALUOr:
				vs(aluOr, w, dst, a, bv, i, x)
			case isa.ALUXor:
				vs(aluXor, w, dst, a, bv, i, x)
			case isa.ALUSll:
				vs(aluSll, w, dst, a, bv, i, x)
			case isa.ALUSrl:
				vs(aluSrl, w, dst, a, bv, i, x)
			case isa.ALUSra:
				vs(aluSra, w, dst, a, bv, i, x)
			case isa.ALUSlt:
				vs(aluSlt, w, dst, a, bv, i, x)
			case isa.ALUSltu:
				vs(aluSltu, w, dst, a, bv, i, x)
			case isa.ALUMul:
				vs(aluMul, w, dst, a, bv, i, x)
			case isa.ALUDiv:
				vs(aluDiv, w, dst, a, bv, i, x)
			case isa.ALUMod:
				vs(aluMod, w, dst, a, bv, i, x)
			}
		}
	}
}

// cmpVV evaluates compare c on every PE with a register B operand.
func cmpVV(c isa.Cond, w width, out []uint8, a, b []int64) {
	switch c {
	case isa.CondEQ:
		cvv(condEQ, w, out, a, b)
	case isa.CondNE:
		cvv(condNE, w, out, a, b)
	case isa.CondLT:
		cvv(condLT, w, out, a, b)
	case isa.CondLE:
		cvv(condLE, w, out, a, b)
	case isa.CondGT:
		cvv(condGT, w, out, a, b)
	case isa.CondGE:
		cvv(condGE, w, out, a, b)
	case isa.CondLTU:
		cvv(condLTU, w, out, a, b)
	case isa.CondLEU:
		cvv(condLEU, w, out, a, b)
	case isa.CondGTU:
		cvv(condGTU, w, out, a, b)
	case isa.CondGEU:
		cvv(condGEU, w, out, a, b)
	}
}

// cmpVS evaluates compare c on every PE against a broadcast scalar, one
// per segment (see cvs).
func cmpVS(c isa.Cond, w width, out []uint8, a, b []int64) {
	switch c {
	case isa.CondEQ:
		cvs(condEQ, w, out, a, b)
	case isa.CondNE:
		cvs(condNE, w, out, a, b)
	case isa.CondLT:
		cvs(condLT, w, out, a, b)
	case isa.CondLE:
		cvs(condLE, w, out, a, b)
	case isa.CondGT:
		cvs(condGT, w, out, a, b)
	case isa.CondGE:
		cvs(condGE, w, out, a, b)
	case isa.CondLTU:
		cvs(condLTU, w, out, a, b)
	case isa.CondLEU:
		cvs(condLEU, w, out, a, b)
	case isa.CondGTU:
		cvs(condGTU, w, out, a, b)
	case isa.CondGEU:
		cvs(condGEU, w, out, a, b)
	}
}

// storeCompare packs a compare's results, out[i] for the PE at bit lo+i,
// 64 bytes to a word, and stores each word into the flag row dst where
// the mask row selects.
func storeCompare(dst, mask []uint64, lo int, out []uint8) {
	for i := 0; i < len(out); i += 64 {
		c := out[i:min(i+64, len(out))]
		storeBits(dst, lo+i, packBytes(c), loadBits(mask, lo+i)&lowBits(len(c)))
	}
}

// packBytes packs up to 64 bytes of 0 or 1 into a word, byte j to bit j,
// eight at a time: the multiply gathers each byte's bit into the top
// byte. A full word's eight gathers are independent.
func packBytes(c []uint8) uint64 {
	const gather = 0x0102040810204080
	if len(c) == 64 {
		le := binary.LittleEndian
		return le.Uint64(c[0:])*gather>>56 | le.Uint64(c[8:])*gather>>56<<8 |
			le.Uint64(c[16:])*gather>>56<<16 | le.Uint64(c[24:])*gather>>56<<24 |
			le.Uint64(c[32:])*gather>>56<<32 | le.Uint64(c[40:])*gather>>56<<40 |
			le.Uint64(c[48:])*gather>>56<<48 | le.Uint64(c[56:])*gather>>56<<56
	}
	var v uint64
	j := 0
	for ; j+8 <= len(c); j += 8 {
		v |= binary.LittleEndian.Uint64(c[j:]) * gather >> 56 << j
	}
	for ; j < len(c); j++ {
		v |= uint64(c[j]) << j
	}
	return v
}

// flagOp runs flag function fn over the PEs at bits [lo, hi) of the rows,
// a word at a time. The span's first and last words may hold other lanes'
// bits or a row's padding; they are restored outside the span.
func flagOp(fn isa.FlagFn, dst, a, b, mask []uint64, lo, hi int) {
	k0, k1 := lo>>6, (hi+63)>>6
	first, last := dst[k0], dst[k1-1]
	dst, a, b, mask = dst[k0:k1], a[k0:k1], b[k0:k1], mask[k0:k1]
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
	fm, lm, n := ^uint64(0)<<(uint(lo)&63), ^uint64(0)>>(uint(-hi)&63), len(dst)-1
	dst[0] = dst[0]&fm | first&^fm
	dst[n] = dst[n]&lm | last&^lm
}

// Bit-span helpers. A flag row is a []uint64 with PE bit i at bit i%64 of
// word i/64; a span [lo, hi) is never empty.

// spanWord returns the bits of word k that lie in the span [lo, hi).
func spanWord(k, lo, hi int) uint64 {
	m := ^uint64(0)
	if k == lo>>6 {
		m <<= uint(lo) & 63
	}
	if k == (hi-1)>>6 {
		m &= ^uint64(0) >> (uint(-hi) & 63)
	}
	return m
}

// lowBits is a word's n low bits set, 1 <= n <= 64.
func lowBits(n int) uint64 { return ^uint64(0) >> (64 - uint(n)) }

// loadBits returns the 64 bits of row that start at bit o; bits past the
// row's end read as zero. A span that starts on a word boundary loads
// whole words; any other is shifted together from two.
func loadBits(row []uint64, o int) uint64 {
	k, s := o>>6, uint(o)&63
	v := row[k] >> s
	if s != 0 && k+1 < len(row) {
		v |= row[k+1] << (64 - s)
	}
	return v
}

// storeBits writes the bits of v that keep selects to row at bit o, and
// leaves every other bit of row as it was.
func storeBits(row []uint64, o int, v, keep uint64) {
	k, s := o>>6, uint(o)&63
	v &= keep
	row[k] = row[k]&^(keep<<s) | v<<s
	if hk := keep >> (64 - s); s != 0 && hk != 0 {
		row[k+1] = row[k+1]&^hk | v>>(64-s)
	}
}

// setBits sets (v) or clears the bits [lo, hi) of row.
func setBits(row []uint64, lo, hi int, v bool) {
	for k := lo >> 6; k <= (hi-1)>>6; k++ {
		if m := spanWord(k, lo, hi); v {
			row[k] |= m
		} else {
			row[k] &^= m
		}
	}
}

// maskView returns the mask row's bits for the n PEs at bits [lo, lo+n)
// as words, split into segments of seg PEs (seg divides n) that each
// start on a word of their own: bit j of word k of segment s is the PE
// s*seg + 64k + j, counted from lo, and the bits past a segment's end are
// zero. When every segment starts on a word boundary of the row and ends
// on one or at the row's last PE, after which come only zero padding
// bits, the view is the row itself; otherwise shiftView builds it.
func (sc *scratch) maskView(mask []uint64, lo, n, seg int) []uint64 {
	if lo&63 == 0 && (seg&63 == 0 || seg == n && lo+n == sc.rowPEs) {
		return mask[lo>>6 : (lo+n+63)>>6]
	}
	return sc.shiftView(mask, lo, n, seg)
}

// shiftView is maskView's general case: each segment's bits shifted
// together into the scratch view.
func (sc *scratch) shiftView(mask []uint64, lo, n, seg int) []uint64 {
	ws := (seg + 63) >> 6
	v := sc.view[:n/seg*ws]
	tail := lowBits(seg - (ws-1)<<6)
	for s := range n / seg {
		o, vs := lo+s*seg, v[s*ws:(s+1)*ws]
		for k := range vs {
			vs[k] = loadBits(mask, o+k<<6)
		}
		vs[ws-1] &= tail
	}
	return v
}

// Reductions. OR, AND, MAX and MIN are associative and commutative, so a
// single masked pass yields exactly what the hardware tree computes: the
// non-responders' identity elements drop out. Each returns the value in
// its leaf domain (sign-extended for the signed kinds); reduceSeg masks it
// to the data width. Only the node-saturating sum depends on the tree's
// topology (sumTree).

// fold is acc = f(acc, v[i]) for each PE i the mask view selects, one
// loop per run of set bits as in the ALU shapes; sh sign-extends each
// element for the signed kinds.
func fold(f func(acc, x int64, sh uint) int64, acc int64, sh uint, v []int64, mask []uint64) int64 {
	for k, x := range mask {
		for i := k << 6; x != 0; {
			y := x + x&-x
			for _, e := range v[i+bits.TrailingZeros64(x) : i+bits.TrailingZeros64(y)] {
				acc = f(acc, e, sh)
			}
			x &= y
		}
	}
	return acc
}

func redOr(acc, x int64, _ uint) int64   { return acc | x }
func redAnd(acc, x int64, _ uint) int64  { return acc & x }
func redMax(acc, x int64, sh uint) int64 { return max(acc, x<<(sh&63)>>(sh&63)) }
func redMin(acc, x int64, sh uint) int64 { return min(acc, x<<(sh&63)>>(sh&63)) }

// reduceSeg is the value reduction k delivers over one lane: its p PEs at
// bits [lo, lo+p) of the flag rows, with responders the mask row resp's
// bits there — over a, the flag operand's row, for RCOUNT, RANY and
// RFIRST; over v, the lane's p words of the word operand, for the rest,
// whose responders are also given as the lane's mask view; a or v and
// mask are nil. RFIRST's value is the winning PE, p when none responds;
// the others are masked to the data width. OR, AND, MAX and MIN fold the
// responders in one pass; the sum (sumTree) may need leaves.
func reduceSeg(k isa.ReduceKind, w width, a []uint64, v []int64, resp []uint64, lo, p int, mask []uint64, leaves []int64) int64 {
	hi := lo + p
	var x int64
	switch k {
	case isa.ReduceFirst:
		return int64(firstResp(a, resp, lo, hi))
	case isa.ReduceCount:
		x = countResp(a, resp, lo, hi)
	case isa.ReduceAny:
		x = b2i(firstResp(a, resp, lo, hi) < p)
	default:
		switch k {
		case isa.ReduceSum:
			x = sumTree(w, v, mask, leaves)
		case isa.ReduceOr:
			x = fold(redOr, 0, 0, v, mask)
		case isa.ReduceAnd:
			x = fold(redAnd, w.ones, 0, v, mask)
		case isa.ReduceMaxS:
			x = fold(redMax, network.Identity(k, w.bits), w.sh, v, mask)
		case isa.ReduceMinS:
			x = fold(redMin, network.Identity(k, w.bits), w.sh, v, mask)
		case isa.ReduceMaxU:
			x = fold(redMax, 0, 0, v, mask)
		default: // isa.ReduceMinU
			x = fold(redMin, w.ones, 0, v, mask)
		}
	}
	return x & w.ones
}

// sumTree is the node-saturating sum of v over the PEs the mask view
// selects. One pass, in fold's loop shape, sums the sign-extended positive
// and negative responders apart. If the positive ones sum to at most the
// unit's largest value and the negative ones to at least its smallest,
// every subtree's sum lies between the two, so no node saturates and the
// plain sum is the tree's answer. Otherwise the responders are written to
// leaves, the others zeroed, and the exact binary-tree fold consumes
// leaves in place.
func sumTree(w width, v []int64, mask []uint64, leaves []int64) int64 {
	var pos, neg int64
	for k, x := range mask {
		for i := k << 6; x != 0; {
			y := x + x&-x
			for _, e := range v[i+bits.TrailingZeros64(x) : i+bits.TrailingZeros64(y)] {
				e = w.sx(e)
				pos += max(e, 0)
				neg += min(e, 0)
			}
			x &= y
		}
	}
	lo, hi := network.SatLimits(w.bits)
	if pos <= hi && neg >= lo {
		return pos + neg
	}
	l := leaves[:len(v)]
	clear(l)
	for k, x := range mask {
		for ; x != 0; x &= x - 1 {
			i := k<<6 + bits.TrailingZeros64(x)
			l[i] = w.sx(v[i])
		}
	}
	return network.FoldInPlaceSatAdd(l, lo, hi)
}

// countResp counts the PEs at bits [lo, hi) where both the a and mask
// rows are set: the response counter of section 6.4.
func countResp(a, mask []uint64, lo, hi int) int64 {
	var n int
	for k := lo >> 6; k <= (hi-1)>>6; k++ {
		n += bits.OnesCount64(a[k] & mask[k] & spanWord(k, lo, hi))
	}
	return int64(n)
}

// firstResp returns the index, counted from lo, of the first PE at bits
// [lo, hi) where both the a and mask rows are set, or hi-lo: the multiple
// response resolver.
func firstResp(a, mask []uint64, lo, hi int) int {
	for k := lo >> 6; k <= (hi-1)>>6; k++ {
		if x := a[k] & mask[k] & spanWord(k, lo, hi); x != 0 {
			return k<<6 + bits.TrailingZeros64(x) - lo
		}
	}
	return hi - lo
}
