package pipeline

import "repro/internal/isa"

// pending describes an in-flight register write.
type pending struct {
	readyAbs  int64 // start-of-cycle at which the value is forwardable
	loc       Location
	prodClass isa.Class
	valid     bool
}

// Scoreboard is the instruction status table of the control unit (section
// 6.3): it tracks all in-flight register writes per hardware thread, and the
// decode units consult it to detect hazards. Registers s0/p0/f0 are
// hardwired and never tracked.
type Scoreboard struct {
	params Params
	scalar [][]pending // [thread][reg]
	par    [][]pending
	flag   [][]pending
}

// NewScoreboard builds a scoreboard for the given thread count.
func NewScoreboard(params Params, threads int) *Scoreboard {
	sb := &Scoreboard{params: params}
	sb.scalar = make([][]pending, threads)
	sb.par = make([][]pending, threads)
	sb.flag = make([][]pending, threads)
	for t := 0; t < threads; t++ {
		sb.scalar[t] = make([]pending, isa.NumScalarRegs)
		sb.par[t] = make([]pending, isa.NumParallelRegs)
		sb.flag[t] = make([]pending, isa.NumFlagRegs)
	}
	return sb
}

func (sb *Scoreboard) table(tid int, kind isa.RegKind) []pending {
	switch kind {
	case isa.KindScalar:
		return sb.scalar[tid]
	case isa.KindParallel:
		return sb.par[tid]
	case isa.KindFlag:
		return sb.flag[tid]
	}
	return nil
}

// MinIssue returns the earliest cycle at which thread tid's micro-op may
// issue given its register dependences, and the hazard class of the
// binding constraint. A result of (0, HazardNone) means no pending
// dependence constrains the instruction. The operand set comes from the
// micro-op's precomputed read/write register lists.
func (sb *Scoreboard) MinIssue(tid int, d *isa.Decoded) (int64, HazardKind) {
	consClass := d.Class
	minIssue := int64(0)
	kind := HazardNone

	consider := func(ref isa.RegRef) {
		if ref.Idx == 0 {
			return // hardwired register: no dependence
		}
		tab := sb.table(tid, ref.Kind)
		if tab == nil {
			return
		}
		p := tab[ref.Idx]
		if !p.valid {
			return
		}
		mi := sb.params.MinIssueForOperand(consClass, p.loc, p.readyAbs)
		if mi > minIssue {
			minIssue = mi
			kind = ClassifyDependence(p.prodClass, consClass)
		}
	}

	for i := uint8(0); i < d.NumReads; i++ {
		consider(d.Reads[i])
	}
	// WAW: a write to a register with an in-flight write must not complete
	// first; the decode unit conservatively holds it like a reader.
	if d.HasWrite {
		consider(d.Write)
	}
	return minIssue, kind
}

// Record notes the register write of a micro-op issued at cycle t, and
// retires entries the new write supersedes.
func (sb *Scoreboard) Record(tid int, d *isa.Decoded, t int64) {
	if !d.HasWrite || d.Write.Idx == 0 {
		return
	}
	loc, ready, ok := sb.params.ResultReady(d, t)
	if !ok {
		return
	}
	tab := sb.table(tid, d.Write.Kind)
	tab[d.Write.Idx] = pending{readyAbs: ready, loc: loc, prodClass: d.Class, valid: true}
}

// ClearThread wipes a thread's entries; used when a context is recycled by
// TSPAWN.
func (sb *Scoreboard) ClearThread(tid int) {
	for _, tab := range [][]pending{sb.scalar[tid], sb.par[tid], sb.flag[tid]} {
		for i := range tab {
			tab[i] = pending{}
		}
	}
}
