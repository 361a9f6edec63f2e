// Gang lanes: the lane-major state plane for cross-job lockstep execution.
// A gang runs N same-program jobs through one decoded micro-op stream
// (internal/core.Gang); each job is one "lane", a *Machine. The paper's
// control unit broadcasts each instruction to every PE of one array
// (section 6.2), and the host runs a gang the same way, as one wide array:
// the lanes' register and flag files share one lane-major plane per file,
// [thread][reg][lane][pe], so a register of a thread is one contiguous
// vector of lanes×PEs words, and a flag register one row of lanes×PEs
// bits packed 64 to a word. This is the AoS→SoA transform applied across
// jobs. Thread contexts and the local and scalar memories stay per lane
// (contiguous [lane][...] sub-slices of shared backing), so PLW, PSW, LW
// and SW keep their per-lane traps.
//
// ExecLanes is the broadcast of one micro-op across the plane. It decides
// the op once; runs the op-specialized PE kernel (kernels.go) once per
// maximal run of side-by-side live lanes, over run×PEs elements; folds a
// reduction segment by segment, one lane's PEs at a time; runs the scalar
// ALU with its op decided once; and computes the fall-through outcome once
// for every lane. A solo machine is its one-lane case (ExecDecoded), and a
// fused superinstruction runs the same way (ExecFusedLanes).
//
// This file is in the hot-path lint set: dispatch keys on precomputed
// micro-op selector fields only.
package machine

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/network"
)

// NewGangLanes builds n machines for one decoded program through the
// shared plane allocator (newLanes). Each lane behaves exactly like an
// independently constructed machine; the shared backing is invisible to
// it.
func NewGangLanes(cfg Config, dp *isa.DecodedProgram, n int) ([]*Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("machine: gang needs at least 1 lane, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newLanes(cfg, dp, n), nil
}

// newLanes is the one state-plane allocator: n machines for a validated
// configuration whose register and flag files share one lane-major plane
// per file and whose other state files are contiguous sub-slices of shared
// per-kind backing, each at power-on (thread 0 active at PC 0). NewDecoded
// is its n = 1 case, whose plane is the solo [thread][reg][pe] layout.
// Every lane reaches the planes through pregPlane and flagRow, and its
// other files are full-capacity three-index sub-slices, so an
// out-of-bounds write in one lane can never corrupt a neighbour.
func newLanes(cfg Config, dp *isa.DecodedProgram, n int) []*Machine {
	p := cfg.PEs
	stride := n * p
	frow := (stride + 63) / 64
	localL := p * cfg.LocalMemWords
	scalarL := cfg.ScalarMemWords

	pregs := make([]int64, cfg.Threads*isa.NumParallelRegs*stride)
	flags := make([]uint64, cfg.Threads*isa.NumFlagRegs*frow)
	sc := &scratch{
		rowPEs: stride,
		bcast:  make([]int64, n),
		view:   make([]uint64, n*((p+63)/64)),
		cmp:    make([]uint8, stride),
	}
	locals := make([]int64, n*localL)
	scalars := make([]int64, n*scalarL)
	leaves := make([]int64, n*p)
	threads := make([]thread, n*cfg.Threads)
	w, satAdd := newWidth(cfg.Width), network.SatAdd(cfg.Width)

	// The machines sit side by side too, so a lane loop walks one block.
	ms := make([]Machine, n)
	lanes := make([]*Machine, n)
	for j := range lanes {
		m := &ms[j]
		m.cfg, m.dec, m.prog = cfg, dp, dp.Insts()
		m.threads = threads[j*cfg.Threads : (j+1)*cfg.Threads : (j+1)*cfg.Threads]
		m.pregs, m.flags, m.off, m.stride, m.frow, m.sc = pregs, flags, j*p, stride, frow, sc
		m.localMem = locals[j*localL : (j+1)*localL : (j+1)*localL]
		m.scalarMem = scalars[j*scalarL : (j+1)*scalarL : (j+1)*scalarL]
		m.leafBuf = leaves[j*p : (j+1)*p : (j+1)*p]
		m.w, m.satAdd = w, satAdd
		for t := range m.threads {
			m.clearFlags(t)
		}
		m.threads[0].state = ThreadActive
		lanes[j] = m
	}
	return lanes
}

// scratch is a plane's kernel scratch, shared by its lanes, since a plane
// runs one micro-op at a time: a broadcast operand's word per lane, a
// mask view (maskView, at most ⌈PEs/64⌉ words per lane), and a compare's
// byte per PE. rowPEs is the plane's PE bits per flag row, lanes × PEs.
type scratch struct {
	rowPEs int
	bcast  []int64
	view   []uint64
	cmp    []uint8
}

// ResetLanes resets a whole plane's machines, as Reset on each would:
// lanes must be NewGangLanes' result in its order, or one solo machine.
// The shared register and flag planes are cleared in one pass each instead
// of one PE vector at a time. Reset resets a single lane.
func ResetLanes(lanes []*Machine) {
	m := lanes[0]
	for j, l := range lanes {
		if l.stride != len(lanes)*m.cfg.PEs || l.off != j*m.cfg.PEs || &l.pregs[0] != &m.pregs[0] {
			panic("machine: ResetLanes needs one gang plane's lanes in order")
		}
	}
	clear(m.pregs)
	clear(m.flags)
	for t := range m.threads {
		setBits(m.flagRow(t, 0), 0, m.stride, true)
	}
	for _, l := range lanes {
		l.resetRest()
	}
}

// ExecLanes runs micro-op d of thread t on every lane lanes[li], li in
// live. Each lane's effects, outcome, and trap (the lowest faulting PE for
// PLW/PSW) are exactly those of running d on that lane alone. It reports
// whether the lanes stayed in lockstep: no lane trapped and every outcome
// is the same. If so, that outcome is in outs[0] and the rest of outs is
// not written; if not, lane live[k]'s outcome is in outs[k] and its trap,
// or nil, in traps[k].
//
// Preconditions: lanes is one machine, or lanes of one gang plane in the
// order NewGangLanes returned them; live is non-empty and ascending;
// t is active and not blocked on every live lane; and every live lane
// holds thread t at the same PC, as a gang in lockstep does. The ops that
// always fall through (PE-array ops, the scalar ALU, LUI and NOP) rely on
// the shared PC: their outcome and program-bound check are computed once,
// from the first live lane. Branches, jumps, thread ops, scalar loads and
// stores and HALT run per lane, since their outcomes are data-dependent.
func ExecLanes(lanes []*Machine, live []int, t int, d *isa.Decoded, outs []Outcome, traps []error) (agree bool) {
	outs, traps = outs[:len(live)], traps[:len(live)]
	switch d.Kind {
	case isa.ExecParallel, isa.ExecReduction, isa.ExecScalarALU, isa.ExecLUI, isa.ExecNop:
	default:
		agree = true
		for k, li := range live {
			err := lanes[li].execScalar(t, d, &outs[k])
			traps[k] = err
			agree = agree && err == nil && outs[k] == outs[0]
		}
		return agree
	}
	trapped := laneOp(lanes, live, t, d, traps)
	lead := lanes[live[0]]
	next := lead.threads[t].pc + 1
	outs[0] = Outcome{NextPC: next, Spawned: -1}
	if !trapped && next <= lead.dec.Len() {
		for _, li := range live {
			lanes[li].threads[t].pc = next
		}
		return true
	}
	for k, li := range live {
		outs[k] = outs[0]
		if !trapped || traps[k] == nil {
			traps[k] = lanes[li].advance(t, d, &outs[k])
		}
	}
	return false
}

// ExecFusedLanes applies a fused superinstruction of thread t on every
// live lane and advances each lane's PC past its constituents. The
// constituents must come from a fused isa.BlockOp: parallel and reduction
// micro-ops that are trap-free and fall through by construction, so there
// is no outcome to report. Each constituent runs over every lane before
// the next starts; lanes are independent, so this is the program order of
// each lane. ExecLanes' preconditions hold here too.
func ExecFusedLanes(lanes []*Machine, live []int, t int, ops []*isa.Decoded) {
	for _, d := range ops {
		laneOp(lanes, live, t, d, nil)
	}
	for _, li := range live {
		lanes[li].threads[t].pc += len(ops)
	}
}

// laneOp applies falling-through micro-op d of thread t on every live lane
// without moving a PC and reports whether any lane trapped. Only PLW and
// PSW trap; they leave lane live[k]'s trap, or nil, in traps[k], and no
// other op writes traps. Callers whose ops cannot trap pass nil traps.
func laneOp(lanes []*Machine, live []int, t int, d *isa.Decoded, traps []error) (trapped bool) {
	switch d.Kind {
	case isa.ExecParallel:
		if d.Par == isa.ParLoad || d.Par == isa.ParStore {
			for k, li := range live {
				err := lanes[li].execLocal(t, d)
				if traps != nil {
					traps[k] = err
				}
				trapped = trapped || err != nil
			}
			return trapped
		}
		for k := 0; k < len(live); {
			j := runEnd(lanes, live, k)
			parallelRun(lanes, live[k:j], t, d)
			k = j
		}
	case isa.ExecReduction:
		for k := 0; k < len(live); {
			j := runEnd(lanes, live, k)
			reduceRun(lanes, live[k:j], t, d)
			k = j
		}
	case isa.ExecScalarALU:
		scalarALULanes(lanes, live, t, d)
	case isa.ExecLUI:
		if rd := d.Inst.Rd; rd != 0 {
			v := int64(uint16(d.Inst.Imm)) << 16 & lanes[live[0]].w.ones
			for _, li := range live {
				lanes[li].threads[t].sregs[rd] = v
			}
		}
	}
	return false
}

// runEnd returns the end of the run of live lanes that starts at live[k]:
// the largest j such that the lanes live[k:j] sit side by side in the
// plane, so one kernel call spans them. Live lanes sit at ascending
// offsets, so when the first and last are as far apart as their count
// says, every lane between is there.
func runEnd(lanes []*Machine, live []int, k int) int {
	p, n := lanes[live[k]].cfg.PEs, len(live)
	if lanes[live[n-1]].off-lanes[live[k]].off == (n-1-k)*p {
		return n
	}
	j := k + 1
	for j < n && lanes[live[j]].off == lanes[live[j-1]].off+p {
		j++
	}
	return j
}

// broadcast gathers each run lane's scalar register r of thread t into the
// plane's broadcast scratch, one word per lane, for a segmented kernel.
func broadcast(lanes []*Machine, run []int, t int, r uint8) []int64 {
	bs := lanes[run[0]].sc.bcast[:len(run)]
	for k, li := range run {
		bs[k] = lanes[li].Scalar(t, r)
	}
	return bs
}

// parallelRun applies parallel micro-op d of thread t, other than the
// trapping PLW and PSW, on every PE of a run of side-by-side lanes — the
// lane-wide form of the PE array's broadcast: the op is decided once, and
// its kernel runs once over the run's stretch of each operand plane, which
// is bits [off, off+n*PEs) of each flag row. A broadcast B operand is each
// lane's own scalar, so those kernels take one B per lane segment.
func parallelRun(lanes []*Machine, run []int, t int, d *isa.Decoded) {
	in := &d.Inst
	if in.Rd == 0 {
		return // every op here writes only rd: p0 and f0 drop it
	}
	m, n := lanes[run[0]], len(run)
	w, p, lo, sc := m.w, m.cfg.PEs, m.off, m.sc
	mask := m.flagRow(t, in.Mask)
	switch d.Par {
	case isa.ParIdx:
		// Each lane numbers its own PEs: one mask segment per lane, walked
		// in the ALU shapes' runs of set bits.
		dst, ws := m.pregSpan(t, in.Rd, n), (p+63)>>6
		view := sc.maskView(mask, lo, n*p, p)
		for s := range n {
			d := dst[s*p : (s+1)*p]
			for k, x := range view[s*ws : (s+1)*ws] {
				for i := k << 6; x != 0; {
					y := x + x&-x
					for pe, hi := i+bits.TrailingZeros64(x), i+bits.TrailingZeros64(y); pe < hi; pe++ {
						d[pe] = int64(pe) & w.ones
					}
					x &= y
				}
			}
		}

	case isa.ParImm:
		v := int64(in.Imm) & w.ones
		dst := m.pregSpan(t, in.Rd, n)
		for k, x := range sc.maskView(mask, lo, n*p, n*p) {
			vs(aluB, w, dst, dst, v, k<<6, x)
		}

	case isa.ParCompare:
		a := m.pregSpan(t, in.Ra, n)
		out := sc.cmp[:len(a)]
		if in.SB {
			cmpVS(d.Cond, w, out, a, broadcast(lanes, run, t, in.Rb))
		} else {
			cmpVV(d.Cond, w, out, a, m.pregSpan(t, in.Rb, n))
		}
		storeCompare(m.flagRow(t, in.Rd), mask, lo, out)

	case isa.ParFlag:
		// An operand the function does not read is f0 in the canonical
		// micro-op, so reading its row is safe.
		flagOp(d.Flag, m.flagRow(t, in.Rd), m.flagRow(t, in.Ra), m.flagRow(t, in.Rb), mask, lo, lo+n*p)

	default: // isa.ParALU: register, broadcast, or immediate B
		dst, a := m.pregSpan(t, in.Rd, n), m.pregSpan(t, in.Ra, n)
		// B is one immediate for the whole run (a single segment), each
		// lane's own scalar (one per lane segment), or a register.
		var bs []int64
		seg := n * p
		switch {
		case d.ImmB:
			bs = sc.bcast[:1]
			bs[0] = int64(in.Imm) & w.ones
		case in.SB:
			bs, seg = broadcast(lanes, run, t, in.Rb), p
		}
		view := sc.maskView(mask, lo, n*p, seg)
		if bs != nil {
			aluVS(d.ALU, w, dst, a, bs, seg, view)
		} else {
			aluVV(d.ALU, w, dst, a, m.pregSpan(t, in.Rb, n), view)
		}
	}
}

// reduceRun applies reduction micro-op d of thread t on a run of
// side-by-side lanes: it forms the operands once, then takes each lane's
// value from its PEs (reduceSeg) and writes it to that lane's scalar rd,
// or, for RFIRST, writes the resolver output to its flag rd. Machine.Reduce
// is the one-lane query of the same values.
func reduceRun(lanes []*Machine, run []int, t int, d *isa.Decoded) {
	in := &d.Inst
	if in.Rd == 0 {
		return // s0 and f0 drop the write, and a reduction has no other effect
	}
	m, n := lanes[run[0]], len(run)
	p := m.cfg.PEs
	a, v := m.reduceOperand(t, d, n)
	resp := m.flagRow(t, in.Mask)
	var dst []uint64
	if d.Reduce == isa.ReduceFirst {
		dst = m.flagRow(t, in.Rd)
	}
	// A word operand's responders are one mask view, ws words per lane.
	var view []uint64
	ws := (p + 63) >> 6
	if v != nil {
		view = m.sc.maskView(resp, m.off, n*p, p)
	}
	for k, li := range run {
		lo := m.off + k*p
		var seg []int64
		var mask []uint64
		if v != nil {
			seg, mask = v[k*p:(k+1)*p], view[k*ws:(k+1)*ws]
		}
		x := reduceSeg(d.Reduce, m.w, a, seg, resp, lo, p, mask, lanes[li].leafBuf)
		if dst == nil {
			lanes[li].threads[t].sregs[in.Rd] = x
			continue
		}
		// The resolver output is a parallel value written back into every
		// PE's flag register, regardless of mask: non-responders receive
		// zero, exactly one responder receives one.
		setBits(dst, lo, lo+p, false)
		if x < int64(p) {
			setBits(dst, lo+int(x), lo+int(x)+1, true)
		}
	}
}

// scalarALULanes applies scalar ALU micro-op d of thread t on every live
// lane, with the op decided once.
func scalarALULanes(lanes []*Machine, live []int, t int, d *isa.Decoded) {
	in := &d.Inst
	if in.Rd == 0 {
		return // s0 drops the write, and the ALU has no other effect
	}
	w := lanes[live[0]].w
	switch d.ALU {
	case isa.ALUAdd:
		sl(aluAdd, w, lanes, live, t, d)
	case isa.ALUSub:
		sl(aluSub, w, lanes, live, t, d)
	case isa.ALUAnd:
		sl(aluAnd, w, lanes, live, t, d)
	case isa.ALUOr:
		sl(aluOr, w, lanes, live, t, d)
	case isa.ALUXor:
		sl(aluXor, w, lanes, live, t, d)
	case isa.ALUSll:
		sl(aluSll, w, lanes, live, t, d)
	case isa.ALUSrl:
		sl(aluSrl, w, lanes, live, t, d)
	case isa.ALUSra:
		sl(aluSra, w, lanes, live, t, d)
	case isa.ALUSlt:
		sl(aluSlt, w, lanes, live, t, d)
	case isa.ALUSltu:
		sl(aluSltu, w, lanes, live, t, d)
	case isa.ALUMul:
		sl(aluMul, w, lanes, live, t, d)
	case isa.ALUDiv:
		sl(aluDiv, w, lanes, live, t, d)
	case isa.ALUMod:
		sl(aluMod, w, lanes, live, t, d)
	}
}

// sl is the scalar ALU's lane loop, s[rd] = f(s[ra], B) on every live
// lane, with B the immediate or s[rb]; like the PE loop shapes, it inlines
// with f. s0 reads as zero because its storage is never written.
func sl(f func(a, b int64, w width) int64, w width, lanes []*Machine, live []int, t int, d *isa.Decoded) {
	in, b := &d.Inst, int64(d.Inst.Imm)&w.ones
	for _, li := range live {
		s := &lanes[li].threads[t].sregs
		if !d.ImmB {
			b = s[in.Rb]
		}
		s[in.Rd] = f(s[in.Ra], b, w)
	}
}

// ExecFused applies all architectural effects of a fused superinstruction
// for thread t and advances the PC past its constituents: ExecFusedLanes'
// one-lane case.
func (m *Machine) ExecFused(t int, ops []*isa.Decoded) {
	lanes := [1]*Machine{m}
	ExecFusedLanes(lanes[:], soloLive, t, ops)
}
