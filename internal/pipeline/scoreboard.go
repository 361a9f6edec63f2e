package pipeline

import (
	"slices"

	"repro/internal/isa"
)

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
// hardwired and never tracked. One table holds every entry, laid out
// [thread][scalar | parallel | flag register].
type Scoreboard struct {
	params Params
	tab    [][rowLen]pending
}

// rowLen is one thread's share of the table; fileBase[k] is where register
// file k starts in it.
const rowLen = isa.NumScalarRegs + isa.NumParallelRegs + isa.NumFlagRegs

var fileBase = [...]int{isa.KindScalar: 0, isa.KindParallel: isa.NumScalarRegs, isa.KindFlag: isa.NumScalarRegs + isa.NumParallelRegs}

// NewScoreboard builds a scoreboard for the given thread count.
func NewScoreboard(params Params, threads int) *Scoreboard {
	return &Scoreboard{params: params, tab: make([][rowLen]pending, threads)}
}

// Clone returns an independent copy of the scoreboard.
func (sb *Scoreboard) Clone() *Scoreboard {
	return &Scoreboard{params: sb.params, tab: slices.Clone(sb.tab)}
}

// tracked reports whether ref names a register the table holds: not a
// hardwired one, and not the empty reference (KindNone), which must never
// index the table.
func tracked(ref isa.RegRef) bool { return ref.Idx != 0 && ref.Kind != isa.KindNone }

// MinIssue returns the earliest cycle at which thread tid's micro-op may
// issue given its register dependences, and the hazard class of the
// binding constraint. A result of (0, HazardNone) means no pending
// dependence constrains the instruction. The operand set comes from the
// micro-op's precomputed read/write register lists.
func (sb *Scoreboard) MinIssue(tid int, d *isa.Decoded) (int64, HazardKind) {
	row := &sb.tab[tid]
	consClass := d.Class
	minIssue := int64(0)
	kind := HazardNone

	consider := func(ref isa.RegRef) {
		if !tracked(ref) {
			return
		}
		p := row[fileBase[ref.Kind]+int(ref.Idx)]
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
	if !d.HasWrite || !tracked(d.Write) {
		return
	}
	loc, ready, ok := sb.params.ResultReady(d, t)
	if !ok {
		return
	}
	sb.tab[tid][fileBase[d.Write.Kind]+int(d.Write.Idx)] = pending{readyAbs: ready, loc: loc, prodClass: d.Class, valid: true}
}

// ClearThread wipes a thread's entries; used when a context is recycled by
// TSPAWN.
func (sb *Scoreboard) ClearThread(tid int) { sb.tab[tid] = [rowLen]pending{} }
