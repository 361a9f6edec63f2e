package machine

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

// peOps lists every parallel-class and reduction opcode.
func peOps() []isa.Op {
	var ops []isa.Op
	for i := 0; i < 256; i++ {
		op := isa.Op(i)
		if !isa.Valid(op) {
			continue
		}
		if c := isa.Lookup(op).Class; c == isa.ClassParallel || c == isa.ClassReduction {
			ops = append(ops, op)
		}
	}
	return ops
}

// laneVariants expands opcode op into the instruction forms the kernels
// distinguish: p0, f0 and s0 operands next to real ones, f0 against a real
// mask flag, p0/f0 destinations, register against broadcast B, and
// immediates that straddle the shift width and the local memory bounds.
func laneVariants(op isa.Op) []isa.Inst {
	info := isa.Lookup(op)
	var out []isa.Inst
	for _, mask := range []uint8{0, 5} {
		switch {
		case op == isa.PLW || op == isa.PSW:
			for _, ra := range []uint8{0, 6} {
				for _, imm := range []int32{0, 2, -1, 7} {
					out = append(out, isa.Inst{Op: op, Rd: 3, Ra: ra, Imm: imm, Mask: mask})
				}
			}
			out = append(out, isa.Inst{Op: op, Rd: 0, Ra: 6, Imm: 1, Mask: mask})
		case info.Format == isa.FormatPI:
			for _, imm := range []int32{0, 3, -1, 17, 40} {
				out = append(out, isa.Inst{Op: op, Rd: 3, Ra: 1, Imm: imm, Mask: mask})
			}
			out = append(out, isa.Inst{Op: op, Rd: 2, Ra: 0, Imm: 5, Mask: mask},
				isa.Inst{Op: op, Rd: 0, Ra: 1, Imm: 5, Mask: mask})
		case info.Class == isa.ClassReduction:
			for _, ra := range []uint8{0, 1, 2} {
				out = append(out, isa.Inst{Op: op, Rd: 3, Ra: ra, Mask: mask})
			}
			out = append(out, isa.Inst{Op: op, Rd: 0, Ra: 1, Mask: mask})
		case info.SrcAKind == isa.KindFlag || info.DstKind == isa.KindFlag && info.SrcAKind == isa.KindNone:
			// Flag logic; the unused fields of FNOT/FMOV/FSET/FCLR hold
			// values outside the flag file, which must never be read.
			for _, ra := range []uint8{0, 1, 2} {
				for _, rb := range []uint8{0, 2, 4} {
					out = append(out, isa.Inst{Op: op, Rd: 3, Ra: ra, Rb: rb, Mask: mask})
				}
			}
			out = append(out, isa.Inst{Op: op, Rd: 0, Ra: 1, Rb: 2, Mask: mask})
			if info.SrcBKind == isa.KindNone {
				out = append(out, isa.Inst{Op: op, Rd: 4, Ra: 2, Rb: 15, Mask: mask})
			}
			if info.SrcAKind == isa.KindNone {
				out = append(out, isa.Inst{Op: op, Rd: 4, Ra: 14, Rb: 15, Mask: mask})
			}
		default: // register-form ALU, PIDX, compares
			for _, ra := range []uint8{0, 1} {
				for _, rb := range []uint8{0, 2} {
					out = append(out, isa.Inst{Op: op, Rd: 3, Ra: ra, Rb: rb, Mask: mask})
				}
			}
			if info.SrcBKind != isa.KindNone {
				for _, sb := range []uint8{0, 4, 7} {
					out = append(out, isa.Inst{Op: op, Rd: 3, Ra: 1, Rb: sb, SB: true, Mask: mask})
				}
			}
			out = append(out, isa.Inst{Op: op, Rd: 0, Ra: 1, Rb: 2, Mask: mask})
		}
	}
	return out
}

// seedLane gives thread t of a lane and of its reference machine the same
// random state: parallel registers drawn from edge values and small
// numbers, flags with a per-lane density, scalars (s7 is a shift count past
// the width), local memory, and p6 as PLW/PSW addresses around the local
// memory bounds, so lanes fault at different PEs.
func seedLane(r *rand.Rand, t int, lane, ref *Machine) {
	cfg := lane.Config()
	ones := int64(1)<<cfg.Width - 1
	edges := []int64{0, 1, 2, ones, ones >> 1, ones>>1 + 1, 3, 5}
	word := func() int64 {
		if r.Intn(2) == 0 {
			return edges[r.Intn(len(edges))]
		}
		return r.Int63() & ones
	}
	set := func(f func(m *Machine)) { f(lane); f(ref) }
	density := r.Float64()
	for pe := 0; pe < cfg.PEs; pe++ {
		for reg := uint8(1); reg < isa.NumParallelRegs; reg++ {
			v := word()
			if reg == 6 {
				v = int64(r.Intn(cfg.LocalMemWords+4)-2) & ones
			}
			set(func(m *Machine) { m.SetParallel(t, pe, reg, v) })
		}
		for reg := uint8(1); reg < isa.NumFlagRegs; reg++ {
			v := r.Float64() < density
			set(func(m *Machine) { m.SetFlag(t, pe, reg, v) })
		}
	}
	for reg := uint8(1); reg < isa.NumScalarRegs; reg++ {
		v := word()
		if reg == 7 {
			v = int64(cfg.Width) + int64(r.Intn(3))
		}
		set(func(m *Machine) { m.SetScalar(t, reg, v) })
	}
	rows := make([][]int64, cfg.PEs)
	for pe := range rows {
		rows[pe] = make([]int64, cfg.LocalMemWords)
		for w := range rows[pe] {
			rows[pe][w] = word()
		}
	}
	set(func(m *Machine) {
		if err := m.LoadLocalMem(rows); err != nil {
			panic(err)
		}
	})
}

// liveSet is a live set of a gang of some size, named for test output.
type liveSet struct {
	name string
	live []int
}

// liveSets lists the live sets the lane tests run at n lanes: every lane,
// and, past one lane, the holes peels leave behind: all but a middle lane
// (two runs), all but lane 0, and one middle survivor.
func liveSets(n int) []liveSet {
	all, holeMid, noFirst := []int{}, []int{}, []int{}
	for j := range n {
		all = append(all, j)
		if j != n/2 {
			holeMid = append(holeMid, j)
		}
		if j != 0 {
			noFirst = append(noFirst, j)
		}
	}
	sets := []liveSet{{"all", all}}
	if n > 1 {
		sets = append(sets, liveSet{"hole-mid", holeMid}, liveSet{"no-lane-0", noFirst}, liveSet{"one", []int{n / 2}})
	}
	return sets
}

// snapshots returns every lane's snapshot.
func snapshots(lanes []*Machine) [][]byte {
	out := make([][]byte, len(lanes))
	for j, m := range lanes {
		out[j] = m.Snapshot()
	}
	return out
}

// checkUntouched fails unless every lane outside live still has the
// snapshot in before.
func checkUntouched(t *testing.T, what string, lanes []*Machine, live []int, before [][]byte) {
	t.Helper()
	isLive := map[int]bool{}
	for _, j := range live {
		isLive[j] = true
	}
	for j, m := range lanes {
		if !isLive[j] && !bytes.Equal(m.Snapshot(), before[j]) {
			t.Fatalf("%s: lane %d is not live but its state changed", what, j)
		}
	}
}

// laneDiff names the first piece of state in which a lane of a gang plane
// differs from a solo reference machine — a thread context, a parallel
// register, a flag bit, the local or scalar memory, the halt flag — or
// returns "" when they match. It reads the state directly, 64 flag bits
// at a time, which is far cheaper per call than comparing snapshot images.
func laneDiff(lane, ref *Machine) string {
	if lane.halted != ref.halted {
		return "halt flag"
	}
	for t := range lane.threads {
		a, b := &lane.threads[t], &ref.threads[t]
		if a.state != b.state || a.pc != b.pc || a.sregs != b.sregs || !slices.Equal(a.mailbox, b.mailbox) {
			return fmt.Sprintf("thread %d context", t)
		}
		for r := range uint8(isa.NumParallelRegs) {
			if !slices.Equal(lane.pregPlane(t, r), ref.pregPlane(t, r)) {
				return fmt.Sprintf("thread %d p%d", t, r)
			}
		}
		for r := range uint8(isa.NumFlagRegs) {
			la, ra := lane.flagRow(t, r), ref.flagRow(t, r)
			for pe := 0; pe < lane.cfg.PEs; pe += 64 {
				n := min(64, lane.cfg.PEs-pe)
				if x := bitsAt(la, lane.off+pe, n) ^ bitsAt(ra, pe, n); x != 0 {
					return fmt.Sprintf("thread %d f%d PE %d", t, r, pe+bits.TrailingZeros64(x))
				}
			}
		}
	}
	if !slices.Equal(lane.localMem, ref.localMem) {
		return "local memory"
	}
	if !slices.Equal(lane.scalarMem, ref.scalarMem) {
		return "scalar memory"
	}
	return ""
}

// bitsAt returns the n (1 to 64) bits of a flag row that start at bit o.
func bitsAt(row []uint64, o, n int) uint64 {
	k, s := o/64, uint(o%64)
	v := row[k] >> s
	if s != 0 && k+1 < len(row) {
		v |= row[k+1] << (64 - s)
	}
	return v & (1<<uint(n) - 1)
}

// lanePEs lists the PE counts the lane tests run at: around the 64-PE
// flag word, so lanes start mid-word, on a word boundary, and straddle
// words, and rows end in padding of every length.
var lanePEs = []int{1, 13, 63, 64, 65, 130}

// flagGuard checks a gang plane's flag invariants around one kernel call:
// the bits of every lane outside the live set keep their values, every
// row's padding bits are zero, and f0 reads as one on every PE.
type flagGuard struct {
	m      *Machine
	live   []uint64 // one row's words with the live lanes' PE bits set
	pes    []uint64 // one row's words with every lane's PE bits set
	before []uint64 // the plane's flag words before the call
}

func newFlagGuard(lanes []*Machine, live []int) *flagGuard {
	m := lanes[0]
	g := &flagGuard{m: m, live: make([]uint64, m.frow), pes: make([]uint64, m.frow)}
	p := m.cfg.PEs
	for b := range len(lanes) * p {
		g.pes[b/64] |= 1 << (b % 64)
	}
	for _, j := range live {
		for b := j * p; b < (j+1)*p; b++ {
			g.live[b/64] |= 1 << (b % 64)
		}
	}
	return g
}

// save records the plane's flag words before a call.
func (g *flagGuard) save() { g.before = append(g.before[:0], g.m.flags...) }

// check fails unless the invariants hold against the saved words.
func (g *flagGuard) check(t *testing.T, what string) {
	t.Helper()
	for i, x := range g.m.flags {
		row, k := i/g.m.frow, i%g.m.frow
		switch {
		case (x^g.before[i])&^g.live[k]&g.pes[k] != 0:
			t.Fatalf("%s: row %d word %d changed bits %#x outside the live lanes", what, row, k, (x^g.before[i])&^g.live[k])
		case x&^g.pes[k] != 0:
			t.Fatalf("%s: row %d word %d has padding bits %#x set", what, row, k, x&^g.pes[k])
		case row%isa.NumFlagRegs == 0 && x != g.pes[k]:
			t.Fatalf("%s: f0 row %d word %d is %#x, want %#x", what, row, k, x, g.pes[k])
		}
	}
}

// TestExecLanesMatchesRef is the lane-wide kernels' differential test.
// Every parallel and reduction opcode, in every operand form laneVariants
// lists, runs through one ExecLanes call over 1, 3 and 32 lanes. At width
// 16 the lanes have each PE count lanePEs lists and run with every live
// set liveSets lists; at widths 8 and 32, 13 PEs with every lane live
// (neither how a live set splits into runs nor where a lane's flag bits
// fall depends on the width). Each lane holds its own random state. Each
// live lane must match the reference interpreter run on an identical
// machine alone: the same outcome, the same trap text (lowest faulting PE
// included), and the same state (laneDiff). After every call the flag plane
// must keep its invariants (flagGuard), and every lane outside the live
// set must be left byte-unchanged.
func TestExecLanesMatchesRef(t *testing.T) {
	ops := peOps()
	if len(ops) < 50 {
		t.Fatalf("found %d PE opcodes; the opcode walk is broken", len(ops))
	}
	prog := make([]isa.Inst, 4)
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []uint{8, 16, 32} {
		for _, n := range []int{1, 3, 32} {
			t.Run(fmt.Sprintf("w%d/lanes=%d", width, n), func(t *testing.T) {
				for _, ls := range liveSets(n) {
					if width != 16 && ls.name != "all" {
						continue
					}
					t.Run(ls.name, func(t *testing.T) {
						for _, pes := range lanePEs {
							if width != 16 && pes != 13 {
								continue
							}
							t.Run(fmt.Sprintf("pes=%d", pes), func(t *testing.T) {
								execLanesMatchRef(t, ops, prog, dp, width, pes, n, ls.live)
							})
						}
					})
				}
			})
		}
	}
}

// execLanesMatchRef is one TestExecLanesMatchesRef case: n lanes of pes
// PEs at the given width, with live the live set.
func execLanesMatchRef(t *testing.T, ops []isa.Op, prog []isa.Inst, dp *isa.DecodedProgram, width uint, pes, n int, live []int) {
	cfg := Config{PEs: pes, Threads: 2, Width: width, LocalMemWords: 6, ScalarMemWords: 4}
	r := rand.New(rand.NewSource(int64(width)*100 + int64(n) + int64(pes)*1000))
	lanes, err := NewGangLanes(cfg, dp, n)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*Machine, n)
	for j := range refs {
		if refs[j], err = New(cfg, prog); err != nil {
			t.Fatal(err)
		}
	}
	guard := newFlagGuard(lanes, live)
	outs, traps := make([]Outcome, n), make([]error, n)
	checked, trapped := 0, 0
	for oi, op := range ops {
		// Each opcode's variants run back to back on thread tid from one
		// fresh random state; they write only rd 0, 2, 3 and 4, so the
		// address plane p6 and the mask flag f5 stay as seeded.
		tid := oi % 2
		for j := range refs {
			seedLane(r, tid, lanes[j], refs[j])
		}
		before := snapshots(lanes)
		for _, in := range laneVariants(op) {
			d := dec(in)
			for _, j := range live {
				lanes[j].SetPC(tid, 1)
				refs[j].SetPC(tid, 1)
			}
			guard.save()
			agree := ExecLanes(lanes, live, tid, d, outs, traps)
			guard.check(t, in.String())
			anyTrap := false
			for k, j := range live {
				ref := refs[j]
				want, wantErr := ref.ExecRef(tid, in)
				got, gotErr := outs[0], error(nil)
				if !agree {
					got, gotErr = outs[k], traps[k]
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%v lane %d: trap %v, reference %v", in, j, gotErr, wantErr)
				}
				if wantErr != nil {
					trapped++
					anyTrap = true
				} else if got != want {
					t.Fatalf("%v lane %d: outcome %+v, reference %+v", in, j, got, want)
				}
				if diff := laneDiff(lanes[j], ref); diff != "" {
					t.Fatalf("%v lane %d: %s differs from the reference", in, j, diff)
				}
				checked++
			}
			if agree == anyTrap {
				t.Fatalf("%v: ExecLanes reported agreement %v with a trap %v", in, agree, anyTrap)
			}
		}
		checkUntouched(t, op.String(), lanes, live, before)
	}
	if trapped == 0 {
		t.Fatal("no lane trapped: PLW/PSW bounds are not exercised")
	}
	t.Logf("%d lane-ops checked, %d trapped", checked, trapped)
}

// TestExecFusedLanesMatchesRef runs the fusion shapes — compare feeding flag
// logic, compare feeding the response counter, and a generic ALU run —
// through ExecFusedLanes on lanes of every PE count lanePEs lists and of
// 16 PEs, 1, 3 and 32 of them with every live set liveSets lists, and
// checks each live lane against the reference interpreter stepping the
// constituents in order (laneDiff), the flag plane's invariants
// (flagGuard), and every other lane for being left unchanged.
func TestExecFusedLanesMatchesRef(t *testing.T) {
	groups := [][]isa.Inst{
		{{Op: isa.PCGT, Rd: 1, Ra: 3, Rb: 4, SB: true}, {Op: isa.FAND, Rd: 2, Ra: 1, Rb: 1}},
		{{Op: isa.PCLTU, Rd: 2, Ra: 1, Rb: 2, Mask: 3}, {Op: isa.FANDN, Rd: 3, Ra: 3, Rb: 2, Mask: 2}},
		{{Op: isa.PCEQ, Rd: 1, Ra: 1, Rb: 4, SB: true}, {Op: isa.RCOUNT, Rd: 5, Ra: 1}},
		{{Op: isa.PADD, Rd: 3, Ra: 3, Rb: 1}, {Op: isa.PCGE, Rd: 4, Ra: 3, Rb: 2}, {Op: isa.RSUM, Rd: 6, Ra: 3, Mask: 4}},
	}
	prog := make([]isa.Inst, 8)
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	// 16 PEs is the serving workloads' geometry: four lanes to a word.
	for _, pes := range append(lanePEs, 16) {
		cfg := Config{PEs: pes, Threads: 1, Width: 16, LocalMemWords: 4, ScalarMemWords: 4}
		for _, n := range []int{1, 3, 32} {
			for _, ls := range liveSets(n) {
				name := fmt.Sprintf("pes=%d/lanes=%d/%s", pes, n, ls.name)
				lanes, err := NewGangLanes(cfg, dp, n)
				if err != nil {
					t.Fatal(err)
				}
				refs := make([]*Machine, n)
				for j := range refs {
					if refs[j], err = New(cfg, prog); err != nil {
						t.Fatal(err)
					}
				}
				guard := newFlagGuard(lanes, ls.live)
				r := rand.New(rand.NewSource(7))
				for gi, g := range groups {
					ds := make([]*isa.Decoded, len(g))
					for i, in := range g {
						ds[i] = dec(in)
					}
					for j := range refs {
						seedLane(r, 0, lanes[j], refs[j])
						lanes[j].SetPC(0, 0)
						refs[j].SetPC(0, 0)
					}
					before := snapshots(lanes)
					guard.save()
					ExecFusedLanes(lanes, ls.live, 0, ds)
					guard.check(t, fmt.Sprintf("%s group %d", name, gi))
					for _, j := range ls.live {
						ref := refs[j]
						for _, in := range g {
							if _, err := ref.ExecRef(0, in); err != nil {
								t.Fatal(err)
							}
						}
						if diff := laneDiff(lanes[j], ref); diff != "" {
							t.Fatalf("%s group %d lane %d: fused %s differs from the reference", name, gi, j, diff)
						}
					}
					checkUntouched(t, fmt.Sprintf("%s group %d", name, gi), lanes, ls.live, before)
				}
			}
		}
	}
}

// TestExecZeroAlloc verifies the hot path runs without any heap allocation
// per instruction, for parallel ALU/compare/memory ops and for every
// reduction class, on a 256-PE array.
func TestExecZeroAlloc(t *testing.T) {
	prog := []isa.Inst{{Op: isa.NOP}}
	cases := []struct {
		name string
		in   isa.Inst
	}{
		{"PADD", isa.Inst{Op: isa.PADD, Rd: 3, Ra: 1, Rb: 2}},
		{"PADDI_masked", isa.Inst{Op: isa.PADDI, Rd: 3, Ra: 1, Imm: 5, Mask: 1}},
		{"PMUL_broadcast", isa.Inst{Op: isa.PMUL, Rd: 3, Ra: 1, Rb: 4, SB: true}},
		{"PCLT", isa.Inst{Op: isa.PCLT, Rd: 2, Ra: 1, Rb: 2}},
		{"FANDN", isa.Inst{Op: isa.FANDN, Rd: 2, Ra: 1, Rb: 2}},
		{"PLW", isa.Inst{Op: isa.PLW, Rd: 1, Ra: 0, Imm: 3}},
		{"PSW", isa.Inst{Op: isa.PSW, Rd: 1, Ra: 0, Imm: 3}},
		{"RSUM", isa.Inst{Op: isa.RSUM, Rd: 2, Ra: 1}},
		{"RAND", isa.Inst{Op: isa.RAND, Rd: 2, Ra: 1}},
		{"RMAX", isa.Inst{Op: isa.RMAX, Rd: 2, Ra: 1, Mask: 1}},
		{"RMINU", isa.Inst{Op: isa.RMINU, Rd: 2, Ra: 1}},
		{"RCOUNT", isa.Inst{Op: isa.RCOUNT, Rd: 2, Ra: 1}},
		{"RANY", isa.Inst{Op: isa.RANY, Rd: 2, Ra: 1}},
		{"RFIRST", isa.Inst{Op: isa.RFIRST, Rd: 2, Ra: 1}},
	}
	m, err := New(Config{PEs: 256, Threads: 2, Width: 8, LocalMemWords: 64}, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Give the responder flags some structure.
	if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.PIDX, Rd: 1})); err != nil {
		t.Fatal(err)
	}
	m.SetPC(0, 0)
	if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.PCLT, Rd: 1, Ra: 1, Rb: 2})); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		d := dec(tc.in)
		allocs := testing.AllocsPerRun(200, func() {
			m.SetPC(0, 0)
			if _, err := m.ExecDecoded(0, d); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per ExecDecoded, want 0", tc.name, allocs)
		}
	}
}
