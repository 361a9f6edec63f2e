package core

// The differential oracle harness: one program generator, one oracle, and
// one table of execution tiers. The oracle is machine.ExecRef — the
// pre-decode reference interpreter — stepping the program on a serial
// machine. Every tier must leave each lane's architectural snapshot
// byte-identical to the oracle's and stop with the oracle's trap text, if
// any. Tiers that model the same timing must also report equal Stats:
// blocks on vs off (minus the block counters), and gang lanes that finish
// in lockstep vs solo runs. On a failure the program is shrunk greedily
// and printed as assembly.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/isa"
	"repro/internal/machine"
)

const (
	oracleLanes       = 4 // gang width; lane 0 is every solo tier's input
	oracleBudget      = 1_000_000
	oracleLocalWords  = 16 // small, so register-based PLW/PSW addresses trap
	oracleScalarWords = 64
	oraclePrograms    = 160 // programs per default TestOracle run
	oracleMultiLive   = 48  // multi-live programs per default TestOracle run
)

// oracleCase is one generated program with its machine shape and one
// randomized architectural input per gang lane. The shape selects the PE
// count (bits 0-1), data width (bits 2-3), the TSPAWN/TEXIT prologue
// (bit 4), the broadcast arity (bits 5-7), and a multi-live prologue of
// 2-4 workers (bits 8-9, nonzero; overrides bit 4); the seed draws the
// program and the inputs.
type oracleCase struct {
	seed    int64
	shape   uint16
	workers int    // threads the prologue spawns: 0 (no prologue), 1, or 2-4 (multi-live)
	cfg     Config // solo configuration: serial engine, blocks on
	prog    []isa.Inst
	dp      *isa.DecodedProgram
	in      [oracleLanes]laneInput

	want [oracleLanes]*laneRun // oracle results, filled lazily
	solo [oracleLanes]*laneRun // solo-tier results, filled lazily
}

// laneInput is one lane's initial architectural state: thread 0's scalar,
// parallel, and flag registers, every PE's local memory, and the head of
// scalar memory.
type laneInput struct {
	sregs []int64
	pregs [][]int64 // [reg][pe]
	flags [][]bool  // [reg][pe]
	local [][]int64 // [pe][word]
	smem  []int64
}

// laneRun is where one tier left one lane; stats is nil for a lane whose
// run has no whole-run statistics (a peeled gang lane, a baseline).
type laneRun struct {
	lane  int
	snap  []byte
	err   error
	stats *Stats
	// inBlock is set on oracle runs that issued an instruction inside a
	// basic block while one thread was active.
	inBlock bool
}

// oracleCoverage counts the behaviours a default run must reach.
// contended counts multi-live programs whose solo run saw more than one
// thread ready for the issue slot.
type oracleCoverage struct {
	programs, traps, peels, blockRuns, restores, contended int
}

func newOracleCase(seed int64, shape uint16) *oracleCase {
	r := rand.New(rand.NewSource(seed))
	mc := machine.Config{
		PEs:            [4]int{5, 32, 67, 300}[shape&3],
		Threads:        1,
		Width:          [4]uint{8, 8, 16, 32}[shape>>2&3],
		LocalMemWords:  oracleLocalWords,
		ScalarMemWords: oracleScalarWords,
		Engine:         machine.EngineSerial,
	}
	c := &oracleCase{seed: seed, shape: shape}
	if shape&16 != 0 {
		c.workers = 1
	}
	if k := int(shape >> 8 & 3); k != 0 {
		c.workers = k + 1
	}
	mc.Threads = 1 + c.workers
	c.cfg = Config{Machine: mc, Arity: 2 + int(shape>>5)%6}
	for i := range c.in {
		c.in[i] = newLaneInput(r, mc.PEs)
	}
	return c.withProg(genProgram(r, c.workers))
}

// withProg returns a copy of c running prog, with empty result caches.
func (c *oracleCase) withProg(prog []isa.Inst) *oracleCase {
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		panic(fmt.Sprintf("oracle: generated program does not decode: %v", err))
	}
	return &oracleCase{seed: c.seed, shape: c.shape, workers: c.workers, cfg: c.cfg, prog: prog, dp: dp, in: c.in}
}

func newLaneInput(r *rand.Rand, pes int) laneInput {
	val := func() int64 { // half small values, half full-width patterns
		if r.Intn(2) == 0 {
			return int64(r.Intn(16))
		}
		return r.Int63()
	}
	in := laneInput{
		sregs: make([]int64, isa.NumScalarRegs),
		pregs: make([][]int64, isa.NumParallelRegs),
		flags: make([][]bool, isa.NumFlagRegs),
		local: make([][]int64, pes),
		smem:  make([]int64, oracleScalarWords),
	}
	for i := range in.sregs {
		in.sregs[i] = val()
	}
	for i := range in.pregs {
		in.pregs[i] = make([]int64, pes)
		for pe := range in.pregs[i] {
			in.pregs[i][pe] = val()
		}
	}
	for i := range in.flags {
		in.flags[i] = make([]bool, pes)
		for pe := range in.flags[i] {
			in.flags[i][pe] = r.Intn(2) == 0
		}
	}
	for pe := range in.local {
		in.local[pe] = make([]int64, oracleLocalWords)
		for w := range in.local[pe] {
			in.local[pe][w] = val()
		}
	}
	for i := range in.smem {
		in.smem[i] = val()
	}
	return in
}

func (in *laneInput) apply(m *machine.Machine) {
	for r, v := range in.sregs {
		m.SetScalar(0, uint8(r), v)
	}
	for r, row := range in.pregs {
		for pe, v := range row {
			m.SetParallel(0, pe, uint8(r), v)
		}
	}
	for r, row := range in.flags {
		for pe, v := range row {
			m.SetFlag(0, pe, uint8(r), v)
		}
	}
	if err := m.LoadLocalMem(in.local); err != nil {
		panic(err)
	}
	if err := m.LoadScalarMem(in.smem); err != nil {
		panic(err)
	}
}

// genProgram draws a terminating program: a forward-only body over every
// instruction class, then HALT. With a prologue, thread 0 spawns the body
// on workers threads and exits, so the body runs on nonzero per-thread
// planes. With several workers (multi-live) they run concurrently, so the
// body must not depend on the schedule: it mixes the thread id into its
// registers, draws no store (scalar and local memory are shared) and no
// instruction that can trap, and ends in TEXIT; the run ends when the last
// worker exits. Per-thread registers and planes are private, so the final
// state is the same for every interleaving.
func genProgram(r *rand.Rand, workers int) []isa.Inst {
	var prog []isa.Inst
	multi := workers > 1
	if workers > 0 {
		for i := 0; i < workers; i++ {
			prog = append(prog, isa.Inst{Op: isa.TSPAWN, Rd: uint8(r.Intn(isa.NumScalarRegs)), Imm: int32(workers + 1)})
		}
		prog = append(prog, isa.Inst{Op: isa.TEXIT})
		// TSPAWN clears thread 1's registers and flags, so the body first
		// loads some from the lane's randomized scalar and local memory.
		for i := 0; i < 4; i++ {
			prog = append(prog,
				isa.Inst{Op: isa.LW, Rd: uint8(r.Intn(isa.NumScalarRegs)), Imm: int32(r.Intn(oracleScalarWords))},
				isa.Inst{Op: isa.PLW, Rd: uint8(r.Intn(isa.NumParallelRegs)), Imm: int32(r.Intn(oracleLocalWords))})
		}
		for i := 0; i < 2; i++ {
			prog = append(prog, isa.Inst{Op: isa.PCLT, Rd: uint8(1 + r.Intn(isa.NumFlagRegs-1)),
				Ra: uint8(r.Intn(isa.NumParallelRegs)), Rb: uint8(r.Intn(isa.NumParallelRegs))})
		}
		if multi {
			id, dst := uint8(1+r.Intn(isa.NumScalarRegs-1)), uint8(1+r.Intn(isa.NumScalarRegs-1))
			prog = append(prog, isa.Inst{Op: isa.TID, Rd: id}, isa.Inst{Op: isa.ADD, Rd: dst, Ra: dst, Rb: id})
		}
	}
	n := 8 + r.Intn(48)
	for i := 0; i < n; i++ {
		in := genInst(r)
		for multi && sharedOrTrapping(in) {
			in = genInst(r)
		}
		prog = append(prog, in.Canonical())
	}
	last := isa.Inst{Op: isa.HALT}
	if multi {
		last = isa.Inst{Op: isa.TEXIT}
	}
	prog = append(prog, last)
	end := len(prog) - 1
	for at, in := range prog {
		if hasTarget(in) && in.Op != isa.TSPAWN {
			prog[at].Imm = int32(at + 1 + r.Intn(min(end-at, 8))) // in (at, end]
		}
	}
	return prog
}

// sharedOrTrapping reports whether a genInst draw writes shared memory or
// can trap: a multi-live body draws again.
func sharedOrTrapping(in isa.Inst) bool {
	return in.Op == isa.SW || in.Op == isa.PSW || in.Op == isa.PLW && in.Ra != 0
}

// hasTarget reports whether in carries a static PC target in Imm.
func hasTarget(in isa.Inst) bool {
	return in.Info().IsBranch || in.Op == isa.J || in.Op == isa.JAL || in.Op == isa.TSPAWN
}

// genInst draws one body instruction. Branch and jump targets are patched
// by genProgram.
func genInst(r *rand.Rand) isa.Inst {
	sreg := func() uint8 { return uint8(r.Intn(isa.NumScalarRegs)) }
	preg := func() uint8 { return uint8(r.Intn(isa.NumParallelRegs)) }
	freg := func() uint8 { return uint8(r.Intn(isa.NumFlagRegs)) }
	mask := func() uint8 { return uint8(r.Intn(4)) }
	pick := func(ops ...isa.Op) isa.Op { return ops[r.Intn(len(ops))] }
	switch k := r.Intn(100); {
	case k < 10: // scalar ALU, register form
		return isa.Inst{Op: pick(isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA,
			isa.SLT, isa.SLTU, isa.MUL, isa.DIV, isa.MOD), Rd: sreg(), Ra: sreg(), Rb: sreg()}
	case k < 15: // scalar ALU, immediate form
		return isa.Inst{Op: pick(isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI, isa.SLTI),
			Rd: sreg(), Ra: sreg(), Imm: int32(r.Intn(256) - 128)}
	case k < 16:
		return isa.Inst{Op: isa.LUI, Rd: sreg(), Imm: int32(r.Intn(1 << 16))}
	case k < 20: // scalar memory at safe addresses
		return isa.Inst{Op: pick(isa.LW, isa.SW), Rd: sreg(), Imm: int32(r.Intn(oracleScalarWords))}
	case k < 26: // forward control flow
		return isa.Inst{Op: pick(isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU, isa.J, isa.JAL),
			Rd: sreg(), Ra: sreg()}
	case k < 38: // parallel ALU, register or broadcast form
		return isa.Inst{Op: pick(isa.PADD, isa.PSUB, isa.PAND, isa.POR, isa.PXOR, isa.PSLL, isa.PSRL, isa.PSRA,
			isa.PMUL, isa.PDIV, isa.PMOD), Rd: preg(), Ra: preg(), Rb: preg(), SB: r.Intn(3) == 0, Mask: mask()}
	case k < 43: // parallel ALU, immediate form
		return isa.Inst{Op: pick(isa.PADDI, isa.PANDI, isa.PORI, isa.PXORI, isa.PSLLI, isa.PSRLI, isa.PSRAI),
			Rd: preg(), Ra: preg(), Imm: int32(r.Intn(64)), Mask: mask()}
	case k < 47:
		return isa.Inst{Op: pick(isa.PIDX, isa.PLI), Rd: preg(), Imm: int32(r.Intn(256) - 128), Mask: mask()}
	case k < 57: // compares
		return isa.Inst{Op: pick(isa.PCEQ, isa.PCNE, isa.PCLT, isa.PCLE, isa.PCGT, isa.PCGE,
			isa.PCLTU, isa.PCLEU, isa.PCGTU, isa.PCGEU), Rd: freg(), Ra: preg(), Rb: preg(), SB: r.Intn(3) == 0, Mask: mask()}
	case k < 66: // flag logic
		return isa.Inst{Op: pick(isa.FAND, isa.FOR, isa.FXOR, isa.FANDN, isa.FNOT, isa.FMOV, isa.FSET, isa.FCLR),
			Rd: freg(), Ra: freg(), Rb: freg(), Mask: mask()}
	case k < 72: // local memory at safe addresses
		return isa.Inst{Op: pick(isa.PLW, isa.PSW), Rd: preg(), Imm: int32(r.Intn(oracleLocalWords)), Mask: mask()}
	case k < 73: // local memory through a register base: usually traps
		return isa.Inst{Op: pick(isa.PLW, isa.PSW), Rd: preg(), Ra: preg(), Imm: int32(r.Intn(8)), Mask: mask()}
	case k < 87: // value reductions
		return isa.Inst{Op: pick(isa.RAND, isa.ROR, isa.RMAX, isa.RMIN, isa.RMAXU, isa.RMINU, isa.RSUM, isa.RSUM),
			Rd: sreg(), Ra: preg(), Mask: mask()}
	case k < 93: // responder reductions
		return isa.Inst{Op: pick(isa.RCOUNT, isa.RANY), Rd: sreg(), Ra: freg(), Mask: mask()}
	default:
		return isa.Inst{Op: isa.RFIRST, Rd: freg(), Ra: freg(), Mask: mask()}
	}
}

// oracle steps lane's input through machine.ExecRef on a serial machine,
// always running the lowest active thread (the bodies never synchronize
// and, when several run at once, never share state, so only the
// prologue's spawn-then-exit order is observable).
func (c *oracleCase) oracle(lane int) *laneRun {
	if c.want[lane] != nil {
		return c.want[lane]
	}
	m, err := machine.NewDecoded(c.cfg.Machine, c.dp)
	if err != nil {
		panic(err)
	}
	c.in[lane].apply(m)
	var runErr error
	inBlock := false
	for steps := 0; !m.Halted() && runErr == nil; steps++ {
		t, active := -1, 0
		for u := c.cfg.Machine.Threads - 1; u >= 0; u-- {
			if m.ThreadActive(u) {
				t, active = u, active+1
			}
		}
		if pc := m.PC(t); pc >= len(c.prog) || steps > 2*len(c.prog)*c.cfg.Machine.Threads {
			runErr = fmt.Errorf("oracle: forward-only program did not halt (pc %d)", pc)
		} else {
			if _, _, _, ok := c.dp.Blocks().Lookup(pc); ok && active == 1 {
				inBlock = true
			}
			_, runErr = m.ExecRef(t, c.prog[pc])
		}
	}
	c.want[lane] = &laneRun{lane: lane, snap: m.Snapshot(), err: runErr, inBlock: inBlock}
	return c.want[lane]
}

// proc builds a processor for the case's program.
func (c *oracleCase) proc(cfg Config) *Processor {
	p, err := NewDecoded(cfg, c.dp)
	if err != nil {
		panic(err)
	}
	return p
}

// runSolo runs lane's input on a fresh processor built from cfg.
func (c *oracleCase) runSolo(cfg Config, lane int) laneRun {
	p := c.proc(cfg)
	c.in[lane].apply(p.Machine())
	st, err := p.Run(oracleBudget)
	return laneRun{lane: lane, snap: p.Snapshot(), err: err, stats: &st}
}

// soloRun is the reference timed run: serial engine, blocks on.
func (c *oracleCase) soloRun(lane int) *laneRun {
	if c.solo[lane] == nil {
		lr := c.runSolo(c.cfg, lane)
		c.solo[lane] = &lr
	}
	return c.solo[lane]
}

// variant runs lane 0 on the solo configuration as modified by mod.
func (c *oracleCase) variant(mod func(*Config)) ([]laneRun, error) {
	cfg := c.cfg
	mod(&cfg)
	return []laneRun{c.runSolo(cfg, 0)}, nil
}

// runGang runs every lane's input on one gang built from cfg.
func (c *oracleCase) runGang(cfg Config) (*Gang, []LaneResult) {
	g, err := NewGangDecoded(cfg, c.dp, oracleLanes)
	if err != nil {
		panic(err)
	}
	for i := range c.in {
		c.in[i].apply(g.Lane(i))
	}
	return g, g.Run(oracleBudget)
}

// timing says which solo-tier Stats a tier's lanes must reproduce.
type timing uint8

const (
	anyTiming  timing = iota // the tier models different timing
	soloTiming               // equal Stats
	noBlocks                 // equal Stats minus the block counters, which must be zero
)

// oracleTier is one execution tier: it runs the case and reports where it
// left each lane it covered, or a disagreement between runs inside the tier.
type oracleTier struct {
	name   string
	timing timing
	run    func(c *oracleCase, cov *oracleCoverage) ([]laneRun, error)
}

var oracleTiers = []oracleTier{
	{"solo", anyTiming, func(c *oracleCase, cov *oracleCoverage) ([]laneRun, error) {
		runs := make([]laneRun, oracleLanes)
		for i := range runs {
			runs[i] = *c.soloRun(i)
			// A lane whose path issues an instruction inside a block takes
			// the block plane unless it traps first. Terminators (control
			// flow, thread management, HALT) lie outside every block, so a
			// path of terminators alone never engages it. Multi-live
			// workers overlap, so when one runs alone depends on the
			// schedule, not on the oracle's order.
			if want := c.oracle(i); want.inBlock && want.err == nil && c.workers < 2 && runs[i].stats.BlockDispatches == 0 {
				return nil, fmt.Errorf("lane %d: block plane never engaged (fallbacks %v)", i, runs[i].stats.BlockFallbacks)
			}
		}
		if c.solo[0].stats.BlockDispatches > 0 {
			cov.blockRuns++
		}
		if c.workers > 1 && c.solo[0].stats.Contention > 0 {
			cov.contended++
		}
		return runs, nil
	}},
	{"blocks-off", noBlocks, func(c *oracleCase, _ *oracleCoverage) ([]laneRun, error) {
		return c.variant(func(cfg *Config) { cfg.Blocks = BlocksOff })
	}},
	{"smt", anyTiming, func(c *oracleCase, _ *oracleCoverage) ([]laneRun, error) {
		return c.variant(func(cfg *Config) { cfg.SMT = true })
	}},
	{"structural", anyTiming, func(c *oracleCase, _ *oracleCoverage) ([]laneRun, error) {
		return c.variant(func(cfg *Config) { cfg.StructuralNetworks = true })
	}},
	{"sched-fixed", anyTiming, func(c *oracleCase, _ *oracleCoverage) ([]laneRun, error) {
		return c.variant(func(cfg *Config) { cfg.Scheduler = SchedFixed })
	}},
	{"gang", soloTiming, func(c *oracleCase, cov *oracleCoverage) ([]laneRun, error) {
		// Blocks on and off must agree lane by lane, peels included; the
		// blocks-on gang then answers to the oracle and the solo tier,
		// peeled lanes as much as the rest.
		off := c.cfg
		off.Blocks = BlocksOff
		gOn, on := c.runGang(c.cfg)
		gOff, offRes := c.runGang(off)
		runs := make([]laneRun, oracleLanes)
		for i, res := range on {
			o := offRes[i]
			snap := gOn.Lane(i).Snapshot()
			if res.Peeled != o.Peeled || errText(res.Err) != errText(o.Err) ||
				!reflect.DeepEqual(stripBlockCounters(res.Stats), o.Stats) ||
				!bytes.Equal(snap, gOff.Lane(i).Snapshot()) {
				return nil, fmt.Errorf("lane %d: gang blocks-on and blocks-off runs differ (peeled %v vs %v)", i, res.Peeled, o.Peeled)
			}
			if res.Peeled {
				cov.peels++
			}
			runs[i] = laneRun{lane: i, snap: snap, err: res.Err}
			if res.Err == nil {
				runs[i].stats = &res.Stats
			}
		}
		return runs, nil
	}},
	{"mid-run-restore", anyTiming, func(c *oracleCase, cov *oracleCoverage) ([]laneRun, error) {
		// Step a seed-chosen share of the solo run, then finish from its
		// snapshot on a fresh processor.
		a := c.proc(c.cfg)
		c.in[0].apply(a.Machine())
		stopAt := 1 + uint64(c.seed)%uint64(max(c.soloRun(0).stats.Cycles-1, 1))
		for cycle := uint64(0); cycle < stopAt; cycle++ {
			if more, err := a.Step(); err != nil || !more {
				return []laneRun{{snap: a.Snapshot(), err: err}}, nil
			}
		}
		cov.restores++
		b := c.proc(c.cfg)
		if err := b.Restore(a.Snapshot()); err != nil {
			panic(err)
		}
		_, err := b.Run(oracleBudget)
		return []laneRun{{snap: b.Snapshot(), err: err}}, nil
	}},
	{"coarse-grain", anyTiming, func(c *oracleCase, _ *oracleCoverage) ([]laneRun, error) {
		cg, err := baseline.NewCoarseGrain(c.cfg.Machine, c.cfg.Arity, c.prog)
		if err != nil {
			panic(err)
		}
		c.in[0].apply(cg.Machine())
		_, err = cg.Run(oracleBudget)
		return []laneRun{{snap: cg.Machine().Snapshot(), err: err}}, nil
	}},
	{"non-pipelined", anyTiming, func(c *oracleCase, _ *oracleCoverage) ([]laneRun, error) {
		if c.cfg.Machine.Threads != 1 {
			return nil, nil // the unpipelined machine has one thread context
		}
		np, err := baseline.NewNonPipelined(c.cfg.Machine, c.prog)
		if err != nil {
			panic(err)
		}
		c.in[0].apply(np.Machine())
		_, err = np.Run(oracleBudget)
		return []laneRun{{snap: np.Machine().Snapshot(), err: err}}, nil
	}},
}

// errText renders a run error (a trap, unwrapped, on every tier) for
// comparison, nil as the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// stripBlockCounters clears the block-plane counters, the only Stats
// fields allowed to differ between blocks-on and blocks-off runs: they
// describe how the work was dispatched, not when it issued.
func stripBlockCounters(s Stats) Stats {
	s.BlockDispatches = 0
	s.BlockFallbacks = nil
	return s
}

// check runs one tier on c and compares it with the oracle.
func (c *oracleCase) check(tr oracleTier, cov *oracleCoverage) error {
	runs, err := tr.run(c, cov)
	if err != nil {
		return err
	}
	for _, got := range runs {
		want := c.oracle(got.lane)
		if g, w := errText(got.err), errText(want.err); g != w {
			return fmt.Errorf("lane %d: error %q, oracle %q", got.lane, g, w)
		}
		if !bytes.Equal(got.snap, want.snap) {
			return fmt.Errorf("lane %d: architectural snapshot differs from the oracle's", got.lane)
		}
		if tr.timing == anyTiming || got.stats == nil {
			continue
		}
		g, w := *got.stats, *c.soloRun(got.lane).stats
		if tr.timing == noBlocks {
			w = stripBlockCounters(w)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("lane %d: stats differ from the solo tier's\n got: %+v\nsolo: %+v", got.lane, g, w)
		}
	}
	return nil
}

// without returns c with instruction i removed, every static target past
// it moved down by one.
func (c *oracleCase) without(i int) *oracleCase {
	prog := slices.Delete(slices.Clone(c.prog), i, i+1)
	for j, in := range prog {
		if hasTarget(in) && int(in.Imm) > i {
			prog[j].Imm--
		}
	}
	return c.withProg(prog)
}

// shrink greedily drops instructions (never the prologue or the final
// HALT or TEXIT) while tr still fails.
func (c *oracleCase) shrink(tr oracleTier) *oracleCase {
	first := 0
	if c.workers > 0 {
		first = c.workers + 1
	}
	for changed := true; changed; {
		changed = false
		for i := len(c.prog) - 2; i >= first; i-- {
			if next := c.without(i); next.check(tr, &oracleCoverage{}) != nil {
				c, changed = next, true
			}
		}
	}
	return c
}

// runOracleCase checks every tier on the program (seed, shape) and fails
// t with a shrunk reproducer on the first mismatch.
func runOracleCase(t *testing.T, seed int64, shape uint16, cov *oracleCoverage) {
	t.Helper()
	c := newOracleCase(seed, shape)
	cov.programs++
	if c.oracle(0).err != nil {
		cov.traps++
	}
	for _, tr := range oracleTiers {
		if err := c.check(tr, cov); err != nil {
			s := c.shrink(tr)
			var asm strings.Builder
			for pc, in := range s.prog {
				fmt.Fprintf(&asm, "%4d  %v\n", pc, in)
			}
			t.Fatalf("oracle: seed %d shape %#03x (%d PEs, width %d, %d threads, %d workers, arity %d) tier %s: %v\nshrunk to %d instructions (%v):\n%s",
				seed, shape, c.cfg.Machine.PEs, c.cfg.Machine.Width, c.cfg.Machine.Threads, c.workers, c.cfg.Arity,
				tr.name, err, len(s.prog), s.check(tr, &oracleCoverage{}), asm.String())
		}
	}
}

// TestOracle sends oraclePrograms generated programs, then oracleMultiLive
// multi-live ones, through every tier and requires the run to have reached
// traps, gang peels, the block plane, mid-run restores, and multi-live
// programs whose workers contended for the issue slot.
func TestOracle(t *testing.T) {
	var cov oracleCoverage
	for i := 0; i < oraclePrograms; i++ {
		runOracleCase(t, int64(i), uint16(uint8(i*29+3)), &cov)
	}
	for i := 0; i < oracleMultiLive; i++ {
		runOracleCase(t, int64(oraclePrograms+i), uint16(uint8(i*29+3))|uint16(1+i%3)<<8, &cov)
	}
	t.Logf("oracle coverage: %+v", cov)
	for name, n := range map[string]int{"trapping program": cov.traps, "gang peel": cov.peels,
		"block-plane run": cov.blockRuns, "mid-run restore": cov.restores, "contended multi-live program": cov.contended} {
		if n == 0 {
			t.Errorf("no %s in %d programs: the generator lost coverage", name, cov.programs)
		}
	}
}

// FuzzOracle explores programs beyond TestOracle's fixed seeds:
//
//	go test -fuzz=FuzzOracle ./internal/core
func FuzzOracle(f *testing.F) {
	for _, shape := range []uint16{0x00, 0x13, 0x2e, 0x5a, 0xb7, 0xfd, 0x113, 0x22e, 0x3b7} {
		f.Add(int64(shape)*7919, shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint16) {
		runOracleCase(t, seed, shape, &oracleCoverage{})
	})
}
