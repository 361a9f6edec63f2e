// Block-plane execution kernels: a fused superinstruction (a run of
// trap-free parallel micro-ops recognized by isa.BuildBlocks) executes in
// one call, with the hot idioms — compare feeding flag logic, compare
// feeding a reduction — merged into a single pass over the PE array
// instead of one pass per constituent. All kernels are bit-identical to
// executing the constituents through ExecDecoded in program order: each
// PE's constituents run in order, and every constituent of a fused op
// reads and writes only its own PE's registers and flags (plus read-only
// scalar state), so per-PE-merged and per-op-serial orders commute.
//
// This file is in the hot-path lint set: dispatch keys on precomputed
// micro-op selector fields only.
package machine

import "repro/internal/isa"

// ExecFused applies all architectural effects of a fused superinstruction
// for thread t and advances the PC past its constituents. The caller must
// ensure the constituents came from a fused isa.BlockOp (trap-free by
// construction) and that the serial engine is active — the sharded engine
// executes constituents individually instead.
func (m *Machine) ExecFused(t int, ops []*isa.Decoded) {
	if len(ops) == 2 && ops[0].Par == isa.ParCompare && ops[0].Kind == isa.ExecParallel && ops[0].Inst.Rd != 0 {
		c, s := ops[0], ops[1]
		switch {
		case s.Kind == isa.ExecParallel && s.Par == isa.ParFlag && s.Inst.Rd != 0:
			m.execFusedCompareFlag(t, c, s)
			m.threads[t].pc += 2
			return
		case s.Kind == isa.ExecReduction && (s.Reduce == isa.ReduceCount || s.Reduce == isa.ReduceAny):
			m.execFusedCompareCount(t, c, s)
			m.threads[t].pc += 2
			return
		}
	}
	// Generic shape: run the constituents back to back through the same
	// range kernels the single-step path uses. Still one dispatch for the
	// whole op; the per-op loop and Outcome bookkeeping are gone.
	for _, d := range ops {
		if d.Kind == isa.ExecReduction {
			m.execReduction(t, d)
		} else {
			m.execParallelRange(t, d, 0, m.cfg.PEs)
		}
	}
	m.threads[t].pc += len(ops)
}

// execFusedCompareFlag merges a parallel compare with the flag-logic op
// consuming (or simply following) it: one pass over the PE array computes
// the compare flag and the flag function per PE, in constituent order.
func (m *Machine) execFusedCompareFlag(t int, c, f *isa.Decoded) {
	p := m.cfg.PEs
	base := t * p
	const nP, nF = isa.NumParallelRegs, isa.NumFlagRegs

	cin, fin := &c.Inst, &f.Inst
	cmk, crd, cra, crb := int(cin.Mask), int(cin.Rd), int(cin.Ra), int(cin.Rb)
	fmk, frd, fra, frb := int(fin.Mask), int(fin.Rd), int(fin.Ra), int(fin.Rb)
	cond, fn := c.Cond, f.Flag

	var sb int64
	if cin.SB {
		sb = m.Scalar(t, cin.Rb)
	}
	for pe := 0; pe < p; pe++ {
		fb := base*nF + pe
		// Constituent 1: compare, gated by its own mask.
		if cmk == 0 || m.flags[fb+cmk*p] {
			var a, b int64
			if cra != 0 {
				a = m.pregs[base*nP+cra*p+pe]
			}
			if cin.SB {
				b = sb
			} else if crb != 0 {
				b = m.pregs[base*nP+crb*p+pe]
			}
			m.flags[fb+crd*p] = m.condTrue(cond, a, b)
		}
		// Constituent 2: flag logic, reading flags the compare just wrote.
		if !(fmk == 0 || m.flags[fb+fmk*p]) {
			continue
		}
		var v bool
		switch fn {
		case isa.FlagAnd:
			v = m.flagAt(fb, fra) && m.flagAt(fb, frb)
		case isa.FlagOr:
			v = m.flagAt(fb, fra) || m.flagAt(fb, frb)
		case isa.FlagXor:
			v = m.flagAt(fb, fra) != m.flagAt(fb, frb)
		case isa.FlagAndNot:
			v = m.flagAt(fb, fra) && !m.flagAt(fb, frb)
		case isa.FlagNot:
			v = !m.flagAt(fb, fra)
		case isa.FlagMov:
			v = m.flagAt(fb, fra)
		case isa.FlagSet:
			v = true
		case isa.FlagClr:
			v = false
		}
		m.flags[fb+frd*p] = v
	}
}

// execFusedCompareCount merges a parallel compare with the response
// counter consuming its result: one pass computes and stores the compare
// flag per PE while counting responders of the reduction, then writes the
// response counter's value exactly as the single-step RCOUNT/RANY would.
func (m *Machine) execFusedCompareCount(t int, c, r *isa.Decoded) {
	p := m.cfg.PEs
	base := t * p
	const nP, nF = isa.NumParallelRegs, isa.NumFlagRegs

	cin, rin := &c.Inst, &r.Inst
	cmk, crd, cra, crb := int(cin.Mask), int(cin.Rd), int(cin.Ra), int(cin.Rb)
	rmk, rra := int(rin.Mask), int(rin.Ra)
	cond := c.Cond

	var sb int64
	if cin.SB {
		sb = m.Scalar(t, cin.Rb)
	}
	var n int64
	for pe := 0; pe < p; pe++ {
		fb := base*nF + pe
		if cmk == 0 || m.flags[fb+cmk*p] {
			var a, b int64
			if cra != 0 {
				a = m.pregs[base*nP+cra*p+pe]
			}
			if cin.SB {
				b = sb
			} else if crb != 0 {
				b = m.pregs[base*nP+crb*p+pe]
			}
			m.flags[fb+crd*p] = m.condTrue(cond, a, b)
		}
		if (rra == 0 || m.flags[fb+rra*p]) && (rmk == 0 || m.flags[fb+rmk*p]) {
			n++
		}
	}
	m.SetScalar(t, rin.Rd, m.countValue(r.Reduce, n))
}
