// Gang execution: N same-program jobs sharing one cycle-accurate front end.
//
// A Gang is the cycle engine (engine.go) with n lanes: the cross-job
// analogue of the broadcast network inside one machine. The paper's
// processor amortizes one decoded instruction over all PEs; the gang
// amortizes one fetch/decode/schedule/issue pass over all jobs that run the
// same program on the same architecture, each on its machine.NewGangLanes
// state plane.
//
// What is gang-specific lives here: the per-lane results. A lane that
// diverges peels at a quiescent point carrying an architectural snapshot;
// the caller resumes it on an ordinary solo processor via
// Processor.Restore, which yields bit-identical final state for programs
// whose result does not depend on the issue schedule (in particular, all
// single-threaded control divergence).
package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/machine"
)

// LaneResult is the terminal state of one gang lane.
type LaneResult struct {
	// Stats is the lane's cycle accounting at the point it left the gang:
	// the full run for lanes that completed in lockstep (identical to a
	// solo run), or the gang-phase prefix for peeled lanes.
	Stats Stats

	// Err is the lane's terminal error: an architectural trap, a wrapped
	// ErrCycleLimit, a context error, or nil for a clean halt. Unset for
	// peeled lanes (they have not finished).
	Err error

	// Peeled marks a lane that diverged from the gang and must be resumed
	// on a solo processor. Snapshot is its architectural state at the peel
	// point (machine.Snapshot format) and PeelCycle the gang cycle it left
	// at, for continuation budgets and merged accounting.
	Peeled    bool
	PeelCycle int64
	Snapshot  []byte
}

// Gang runs n identically configured, same-program processors in lockstep
// behind a single control-unit front end and scoreboard.
type Gang struct {
	engine
}

// NewGangDecoded builds a gang of n lanes around a shared decoded program.
// Gangs do not support SMT (the dual-issue second port re-classifies threads
// mid-cycle, which the per-lane divergence checks do not model), structural
// network co-simulation, or tracing; serving callers exclude such jobs from
// ganging instead.
func NewGangDecoded(cfg Config, dp *isa.DecodedProgram, n int) (*Gang, error) {
	if cfg.SMT {
		return nil, fmt.Errorf("core: gang execution does not support SMT")
	}
	if cfg.StructuralNetworks {
		return nil, fmt.Errorf("core: gang execution does not support structural network co-simulation")
	}
	if cfg.TraceDepth != 0 {
		return nil, fmt.Errorf("core: gang execution does not support tracing")
	}
	g := new(Gang)
	if err := g.init(cfg, dp, func(mc machine.Config) ([]*machine.Machine, error) {
		return machine.NewGangLanes(mc, dp, n)
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// Lanes returns the number of lanes the gang was built with.
func (g *Gang) Lanes() int { return len(g.lanes) }

// Lane exposes lane i's architectural state (for loading data and reading
// results).
func (g *Gang) Lane(i int) *machine.Machine { return g.lanes[i] }

// Run simulates until every lane has finished, peeled, or trapped, or until
// maxCycles elapse (0 = no limit).
func (g *Gang) Run(maxCycles int64) []LaneResult {
	return g.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation, like
// Processor.RunContext. It always returns one LaneResult per lane; lanes
// still live when the budget, context, or a deadlock ends the run finalize
// with the corresponding error. The returned slice is owned by the gang and
// is invalidated by Reset.
func (g *Gang) RunContext(ctx context.Context, maxCycles int64) []LaneResult {
	g.finalizeLive(g.run(ctx, maxCycles))
	return g.res
}

// laneStats copies the shared statistics for one departing lane.
func (e *engine) laneStats() Stats {
	s := e.finish()
	s.PerThread = slices.Clone(s.PerThread)
	return s
}

// peel records lane li as diverged: snapshot its architectural state and the
// gang-phase statistics so the caller can resume it solo.
func (e *engine) peel(li int) {
	e.res[li] = LaneResult{
		Peeled:    true,
		PeelCycle: e.cycle,
		Snapshot:  e.lanes[li].Snapshot(),
		Stats:     e.laneStats(),
	}
}

// finalize records lane li's terminal result (err nil for a clean halt).
func (e *engine) finalize(li int, err error) {
	e.res[li] = LaneResult{Err: err, Stats: e.laneStats()}
}

// finalizeLive finalizes every still-live lane with err and empties the
// live set.
func (e *engine) finalizeLive(err error) {
	for _, li := range e.live {
		e.finalize(li, err)
	}
	e.live, e.lead = e.live[:0], nil
}
