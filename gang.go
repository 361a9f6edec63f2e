package asc

import (
	"context"

	"repro/internal/core"
)

// Gang runs several jobs of the same Program and Config in lockstep behind
// one shared cycle-accurate front end: one fetch/decode/schedule/issue pass
// per cycle drives every job's ("lane's") architectural state, the cross-job
// analogue of the paper's one-instruction-to-all-PEs broadcast. The serving
// daemon gangs same-program batch jobs this way; each lane's results and
// statistics are bit-identical to a solo Processor run.
//
// Lockstep requires the lanes' control behavior to agree. A lane whose
// branch, halt, spawn, or interthread-sync behavior diverges from the gang
// "peels": it leaves the lockstep group on its own copy of the gang's front
// end and finishes there, within the same Run; a lane that traps finishes
// with the trap. Gangs do not support SMT, tracing, or structural network
// co-simulation; NewGang rejects such configurations.
type Gang struct {
	cfg  Config
	prog *Program
	core *core.Gang
}

// GangLaneResult is the terminal state of one gang lane, identical to a
// solo Processor run of the same job.
type GangLaneResult struct {
	// Stats is the lane's run statistics.
	Stats Stats
	// Err is the lane's terminal error — an architectural trap, a wrapped
	// ErrCycleLimit, or a context error — and nil for a clean halt.
	Err error
	// Peeled marks a lane that diverged from the gang and finished on its
	// own copy of the gang's front end.
	Peeled bool
}

// NewGang builds a gang of lanes running prog, sharing the program's
// decoded form and allocating all lanes' state as contiguous planes.
func NewGang(cfg Config, prog *Program, lanes int) (*Gang, error) {
	g, err := core.NewGangDecoded(cfg.coreConfig(), prog.dec, lanes)
	if err != nil {
		return nil, err
	}
	ng := &Gang{cfg: cfg, prog: prog, core: g}
	if err := ng.loadData(); err != nil {
		return nil, err
	}
	return ng, nil
}

// loadData initializes every lane's scalar memory from the program's
// .data image.
func (g *Gang) loadData() error {
	for i := 0; i < g.core.Lanes(); i++ {
		if err := g.prog.loadData(g.core.Lane(i)); err != nil {
			return err
		}
	}
	return nil
}

// Lanes returns the number of lanes the gang was built with.
func (g *Gang) Lanes() int { return g.core.Lanes() }

// Config returns the configuration the gang was built with.
func (g *Gang) Config() Config { return g.cfg }

// Reset returns every lane to power-on state without reallocating the
// shared state planes, then reloads the program's data segment; like
// Processor.Reset, the serving pool uses it to recycle warm gangs.
func (g *Gang) Reset() error {
	g.core.Reset()
	return g.loadData()
}

// SetProgram swaps in a new program and Resets the gang; allocations are
// unchanged, so a pooled gang serves a stream of different programs.
func (g *Gang) SetProgram(prog *Program) error {
	g.core.SetDecoded(prog.dec)
	g.prog = prog
	return g.loadData()
}

// LoadLocalMem initializes lane's PE local memories: data[pe][word].
func (g *Gang) LoadLocalMem(lane int, data [][]int64) error {
	return g.core.Lane(lane).LoadLocalMem(data)
}

// LoadScalarMem initializes lane's control unit data memory from address 0.
func (g *Gang) LoadScalarMem(lane int, data []int64) error {
	return g.core.Lane(lane).LoadScalarMem(data)
}

// Run simulates until every lane has halted or trapped, or until maxCycles
// elapse (0 = unlimited), returning one result per lane.
func (g *Gang) Run(maxCycles int64) []GangLaneResult {
	return g.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation, like
// Processor.RunContext; lanes still in lockstep when ctx ends finalize with
// its error.
func (g *Gang) RunContext(ctx context.Context, maxCycles int64) []GangLaneResult {
	res := g.core.RunContext(ctx, maxCycles)
	out := make([]GangLaneResult, len(res))
	for i, lr := range res {
		out[i] = GangLaneResult{Stats: convertStats(lr.Stats), Err: lr.Err, Peeled: lr.Peeled}
	}
	return out
}

// ScalarMem reads word w of lane's control unit data memory.
func (g *Gang) ScalarMem(lane, w int) int64 { return g.core.Lane(lane).ScalarMem(w) }

// LocalMem reads word w of PE pe's local memory in lane.
func (g *Gang) LocalMem(lane, pe, w int) int64 { return g.core.Lane(lane).LocalMem(pe, w) }

// Snapshot serializes lane's complete architectural state; it restores
// into a Processor (or gang lane) built with the same Config and Program.
func (g *Gang) Snapshot(lane int) []byte { return g.core.Lane(lane).Snapshot() }
