// Gang execution: N same-program jobs sharing one cycle-accurate front end.
//
// A Gang is the cycle engine (engine.go) with n lanes: the cross-job
// analogue of the broadcast network inside one machine. The paper's
// processor amortizes one decoded instruction over all PEs; the gang
// amortizes one fetch/decode/schedule/issue pass over all jobs that run the
// same program on the same architecture, each on its machine.NewGangLanes
// state plane.
//
// What is gang-specific lives here: the per-lane results and the forks. A
// lane that diverges forks: it moves onto a one-lane copy of the engine —
// front end, scoreboard, unit reservations, statistics, clock and poll
// boundary, exactly where its solo run stands — and RunContext finishes it
// after the lockstep group, on the gang's own planes. Every lane's result
// is therefore its solo run's, peeled or not.
package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/machine"
)

// LaneResult is the terminal state of one gang lane: its statistics and
// error are those of a solo run of the same job.
type LaneResult struct {
	Stats Stats

	// Err is the lane's terminal error: an architectural trap, a wrapped
	// ErrCycleLimit, a context error, or nil for a clean halt.
	Err error

	// Peeled marks a lane that diverged from the gang and finished on its
	// own fork of the engine.
	Peeled bool
}

// fork is a lane that left the lockstep group on its own one-lane copy of
// the engine. redo marks a fork made before issue, which redoes its cycle.
type fork struct {
	lane int
	redo bool
	*engine
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

// Run simulates until every lane has finished or trapped, or until
// maxCycles elapse (0 = no limit).
func (g *Gang) Run(maxCycles int64) []LaneResult {
	return g.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation, like
// Processor.RunContext. It always returns one LaneResult per lane; lanes
// still live when the budget, context, or a deadlock ends the run finalize
// with the corresponding error. The forks then run to their own ends under
// the same budget and context. The returned slice is owned by the gang and
// is invalidated by Reset.
func (g *Gang) RunContext(ctx context.Context, maxCycles int64) []LaneResult {
	g.finalizeLive(g.run(ctx, maxCycles))
	for _, f := range g.forks {
		var err error
		if !f.done() {
			err = f.resume(ctx, maxCycles, f.redo)
		}
		f.finalize(f.lane, err)
	}
	g.forks = nil
	return g.res
}

// laneStats copies the shared statistics for one departing lane.
func (e *engine) laneStats() Stats {
	s := e.finish()
	s.PerThread = slices.Clone(s.PerThread)
	return s
}

// fork moves lane li out of the lockstep group onto a one-lane copy of the
// engine that drives the lane on the gang's planes and shares its results.
func (e *engine) fork(li int, redo bool) *engine {
	f := &engine{cfg: e.cfg, params: e.params, front: e.front.Clone(), sb: e.sb.Clone(),
		lanes: e.lanes, live: []int{li}, lead: e.lanes[li], res: e.res,
		liveBuf: make([]int, 0, 1), outBuf: make([]machine.Outcome, 1), trapBuf: make([]error, 1),
		runState: e.runState, views: slices.Clone(e.views), blocks: e.blocks}
	f.stats.PerThread = slices.Clone(e.stats.PerThread)
	f.invalidate()
	e.res[li].Peeled = true
	e.forks = append(e.forks, fork{lane: li, redo: redo, engine: f})
	return f
}

// finalize records lane li's terminal result (err nil for a clean halt).
func (e *engine) finalize(li int, err error) {
	e.res[li] = LaneResult{Err: err, Stats: e.laneStats(), Peeled: e.res[li].Peeled}
}

// finalizeLive finalizes every still-live lane with err and empties the
// live set.
func (e *engine) finalizeLive(err error) {
	for _, li := range e.live {
		e.finalize(li, err)
	}
	e.live, e.lead = e.live[:0], nil
}
