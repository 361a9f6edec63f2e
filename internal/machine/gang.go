// Gang lanes: the structure-of-arrays state plane for cross-job lockstep
// execution. A gang runs N same-program jobs through one decoded micro-op
// stream (internal/core.Gang); each job is one "lane" — a *Machine whose
// flat state files are contiguous sub-slices of planes shared by the whole
// gang. This is the register-major AoS→SoA transform applied one level up:
// where a single machine lays registers out [thread][reg][pe], the gang
// plane is [job][thread][reg][pe] (thread contexts and memories likewise
// [job][...]), so the per-micro-op lane loop streams one contiguous block
// per job instead of chasing N scattered heaps.
//
// ExecLanes is the broadcast of one micro-op across the plane: it decides
// the op once and runs the op-specialized PE kernel (kernels.go) over
// every live lane, filling caller-owned outcome and trap buffers. A
// solo machine is its one-lane case (ExecDecoded), and a fused
// superinstruction runs the same way (ExecFusedLanes).
//
// This file is in the hot-path lint set: dispatch keys on precomputed
// micro-op selector fields only.
package machine

import (
	"fmt"

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
// configuration whose state files are contiguous sub-slices of shared
// per-kind planes, each at power-on (thread 0 active at PC 0). NewDecoded
// is its n = 1 case. Lanes are full-capacity three-index sub-slices, so an
// out-of-bounds write in one lane can never corrupt a neighbor.
func newLanes(cfg Config, dp *isa.DecodedProgram, n int) []*Machine {
	regL := cfg.Threads * cfg.PEs * isa.NumParallelRegs
	flagL := cfg.Threads * cfg.PEs * isa.NumFlagRegs
	localL := cfg.PEs * cfg.LocalMemWords
	scalarL := cfg.ScalarMemWords
	leafL := cfg.PEs

	pregs := make([]int64, n*regL)
	flags := make([]bool, n*flagL)
	locals := make([]int64, n*localL)
	scalars := make([]int64, n*scalarL)
	leaves := make([]int64, n*leafL)
	threads := make([]thread, n*cfg.Threads)
	w, satAdd := newWidth(cfg.Width), network.SatAdd(cfg.Width)

	lanes := make([]*Machine, n)
	for j := range lanes {
		m := &Machine{cfg: cfg, dec: dp, prog: dp.Insts()}
		m.threads = threads[j*cfg.Threads : (j+1)*cfg.Threads : (j+1)*cfg.Threads]
		m.pregs = pregs[j*regL : (j+1)*regL : (j+1)*regL]
		m.flags = flags[j*flagL : (j+1)*flagL : (j+1)*flagL]
		m.localMem = locals[j*localL : (j+1)*localL : (j+1)*localL]
		m.scalarMem = scalars[j*scalarL : (j+1)*scalarL : (j+1)*scalarL]
		m.leafBuf = leaves[j*leafL : (j+1)*leafL : (j+1)*leafL]
		m.w, m.satAdd = w, satAdd
		for t := range m.threads {
			m.clearFlags(t)
		}
		m.threads[0].state = ThreadActive
		lanes[j] = m
	}
	return lanes
}

// ExecLanes runs micro-op d of thread t on every lane lanes[li], li in
// live, writing lane live[k]'s outcome to outs[k] and its trap, or nil, to
// traps[k]. Each lane's effects, outcome, and trap (the lowest faulting PE
// for PLW/PSW) are exactly those of running d on that lane alone; the
// caller must pass a non-empty live set and ensure t is active and not
// blocked on every lane. It
// reports whether the lanes stayed in lockstep: no lane trapped and every
// outcome equals outs[0]. PE-array ops run lane-wide through the kernels;
// control-unit ops run per lane, since their outcomes are data-dependent.
func ExecLanes(lanes []*Machine, live []int, t int, d *isa.Decoded, outs []Outcome, traps []error) (agree bool) {
	outs, traps = outs[:len(live)], traps[:len(live)]
	agree = true
	if d.Kind != isa.ExecParallel && d.Kind != isa.ExecReduction {
		for k, li := range live {
			err := lanes[li].execScalar(t, d, &outs[k])
			traps[k] = err
			agree = agree && err == nil && outs[k] == outs[0]
		}
		return agree
	}
	peLanes(lanes, live, t, d, traps)
	// PE-array ops fall through, so the lanes that did not trap agree
	// exactly when their PCs do.
	for k, li := range live {
		m := lanes[li]
		outs[k] = Outcome{NextPC: m.threads[t].pc + 1, Spawned: -1}
		if traps[k] == nil {
			traps[k] = m.advance(t, d, &outs[k])
		}
		agree = agree && traps[k] == nil && outs[k].NextPC == outs[0].NextPC
	}
	return agree
}

// ExecFusedLanes applies a fused superinstruction of thread t on every
// live lane and advances each lane's PC past its constituents. The
// constituents must come from a fused isa.BlockOp: parallel and reduction
// micro-ops that are trap-free and fall through by construction, so there
// is no outcome to report. Each constituent runs over every lane before
// the next starts; lanes are independent, so this is the program order of
// each lane.
func ExecFusedLanes(lanes []*Machine, live []int, t int, ops []*isa.Decoded) {
	for _, d := range ops {
		peLanes(lanes, live, t, d, nil)
	}
	for _, li := range live {
		lanes[li].threads[t].pc += len(ops)
	}
}

// peLanes applies PE-array micro-op d of thread t on every live lane,
// leaving lane live[k]'s trap, or nil, in traps[k]. Callers whose ops
// cannot trap pass nil traps.
func peLanes(lanes []*Machine, live []int, t int, d *isa.Decoded, traps []error) {
	switch {
	case d.Kind == isa.ExecReduction:
		for _, li := range live {
			lanes[li].execReduction(t, d)
		}
	case d.Par == isa.ParLoad || d.Par == isa.ParStore:
		for k, li := range live {
			if err := lanes[li].execLocal(t, d); traps != nil {
				traps[k] = err
			}
		}
		return
	default:
		parallelLanes(lanes, live, t, d)
	}
	clear(traps)
}

// parallelLanes applies parallel micro-op d of thread t, other than the
// trapping PLW and PSW, on every PE of every lane in live — the lane-wide
// form of the PE array's broadcast: the op is decided once, and each lane
// runs its kernel over the lane's own planes.
func parallelLanes(lanes []*Machine, live []int, t int, d *isa.Decoded) {
	in := &d.Inst
	if in.Rd == 0 {
		return // every op here writes only rd: p0 and f0 drop it
	}
	w := lanes[live[0]].w
	switch d.Par {
	case isa.ParIdx:
		for _, li := range live {
			m := lanes[li]
			dst, mask := m.pregPlane(t, in.Rd), m.flagPlane(t, in.Mask)
			for i := range dst {
				if mask[i] {
					dst[i] = int64(i) & w.ones
				}
			}
		}

	case isa.ParImm:
		v := int64(in.Imm) & w.ones
		for _, li := range live {
			m := lanes[li]
			dst, mask := m.pregPlane(t, in.Rd), m.flagPlane(t, in.Mask)
			for i := range dst {
				if mask[i] {
					dst[i] = v
				}
			}
		}

	case isa.ParCompare:
		for _, li := range live {
			m := lanes[li]
			dst, a, mask := m.flagPlane(t, in.Rd), m.pregPlane(t, in.Ra), m.flagPlane(t, in.Mask)
			if in.SB {
				cmpVS(d.Cond, w, dst, a, m.Scalar(t, in.Rb), mask)
			} else {
				cmpVV(d.Cond, w, dst, a, m.pregPlane(t, in.Rb), mask)
			}
		}

	case isa.ParFlag:
		// An operand the function does not read is f0 in the canonical
		// micro-op, so forming its plane is safe.
		for _, li := range live {
			m := lanes[li]
			flagOp(d.Flag, m.flagPlane(t, in.Rd), m.flagPlane(t, in.Ra), m.flagPlane(t, in.Rb), m.flagPlane(t, in.Mask))
		}

	default: // isa.ParALU: register, broadcast, or immediate B
		imm := int64(in.Imm) & w.ones
		for _, li := range live {
			m := lanes[li]
			dst, a, mask := m.pregPlane(t, in.Rd), m.pregPlane(t, in.Ra), m.flagPlane(t, in.Mask)
			switch {
			case d.ImmB:
				aluVS(d.ALU, w, dst, a, imm, mask)
			case in.SB:
				aluVS(d.ALU, w, dst, a, m.Scalar(t, in.Rb), mask)
			default:
				aluVV(d.ALU, w, dst, a, m.pregPlane(t, in.Rb), mask)
			}
		}
	}
}

// ExecFused applies all architectural effects of a fused superinstruction
// for thread t and advances the PC past its constituents: ExecFusedLanes'
// one-lane case.
func (m *Machine) ExecFused(t int, ops []*isa.Decoded) {
	lanes := [1]*Machine{m}
	ExecFusedLanes(lanes[:], soloLive, t, ops)
}
