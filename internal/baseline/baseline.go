// Package baseline implements the comparison machines the paper positions
// the Multithreaded ASC Processor against:
//
//   - NonPipelined models the original scalable ASC Processor prototypes
//     [refs 5, 6 of the paper]: instruction execution is not pipelined, the
//     broadcast/reduction network is combinational, and maximum/minimum
//     reductions use the bit-serial Falkoff algorithm (one bit per cycle,
//     section 6.4). CPI is 1 for most instructions, Width for max/min and
//     divide, but the clock cycle must cover the full network propagation
//     (see internal/fpga's clock model).
//
//   - CoarseGrain is a coarse-grain multithreaded variant of the pipelined
//     processor (section 5): a thread runs until it hits a long-latency
//     stall, then the pipeline is flushed and another thread is switched
//     in, costing SwitchPenalty cycles. It demonstrates why fine-grain
//     multithreading is required to hide the short, frequent reduction
//     stalls.
//
// Both reuse the functional machine, so all three machine models compute
// identical architectural results.
package baseline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// Result summarizes a baseline run.
type Result struct {
	Cycles       int64
	Instructions int64
	// Switches counts thread switches (coarse-grain model only).
	Switches int64
}

// IPC is instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// NonPipelined is the unpipelined ASC processor model.
type NonPipelined struct {
	mach *machine.Machine
	cfg  machine.Config
}

// NewNonPipelined builds the unpipelined model. Multithreading requires a
// pipelined machine, so Threads is forced to 1.
func NewNonPipelined(cfg machine.Config, prog []isa.Inst) (*NonPipelined, error) {
	cfg.Threads = 1
	m, err := machine.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &NonPipelined{mach: m, cfg: cfg}, nil
}

// Machine exposes the architectural state.
func (n *NonPipelined) Machine() *machine.Machine { return n.mach }

// cpi returns the cycles one micro-op occupies the unpipelined machine.
func (n *NonPipelined) cpi(d *isa.Decoded) int64 {
	switch {
	case d.Info.IsDiv:
		return int64(n.cfg.Width) // sequential divider, one bit per cycle
	case d.Kind == isa.ExecReduction &&
		(d.Reduce == isa.ReduceMaxS || d.Reduce == isa.ReduceMinS ||
			d.Reduce == isa.ReduceMaxU || d.Reduce == isa.ReduceMinU):
		// Falkoff bit-serial max/min (section 6.4): one bit per cycle.
		return int64(n.cfg.Width)
	default:
		return 1
	}
}

// Run executes to completion (or maxCycles) and returns cycle counts.
func (n *NonPipelined) Run(maxCycles int64) (Result, error) {
	var res Result
	prog := n.mach.Decoded()
	for !n.mach.Halted() {
		if maxCycles > 0 && res.Cycles >= maxCycles {
			return res, fmt.Errorf("baseline: cycle limit %d reached", maxCycles)
		}
		pc := n.mach.PC(0)
		if pc < 0 || pc >= prog.Len() {
			return res, fmt.Errorf("baseline: pc %d out of bounds", pc)
		}
		d := prog.At(pc)
		if n.mach.BlockedDecoded(0, d) {
			return res, fmt.Errorf("baseline: single-threaded machine blocked forever at pc %d", pc)
		}
		if _, err := n.mach.ExecDecoded(0, d); err != nil {
			return res, err
		}
		res.Cycles += n.cpi(d)
		res.Instructions++
	}
	return res, nil
}

// CoarseGrain is the coarse-grain multithreaded model: in-order pipelined
// issue like the MTASC core, but only one thread occupies the pipeline at a
// time. When the resident thread would stall longer than SwitchThreshold
// cycles, the pipeline is flushed and the next runnable thread is switched
// in after SwitchPenalty cycles.
type CoarseGrain struct {
	mach   *machine.Machine
	cfg    machine.Config
	params pipeline.Params
	sb     *pipeline.Scoreboard

	// SwitchPenalty is the cost of a thread switch (pipeline flush +
	// machine state update, section 5; "it takes many cycles").
	SwitchPenalty int64
	// SwitchThreshold is the minimum projected stall that triggers a
	// switch; short stalls are absorbed in place.
	SwitchThreshold int64
}

// NewCoarseGrain builds the coarse-grain model.
func NewCoarseGrain(cfg machine.Config, arity int, prog []isa.Inst) (*CoarseGrain, error) {
	m, err := machine.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	if arity == 0 {
		arity = 4
	}
	params := pipeline.DefaultParams(cfg.PEs, arity, cfg.Width)
	return &CoarseGrain{
		mach:            m,
		cfg:             cfg,
		params:          params,
		sb:              pipeline.NewScoreboard(params, cfg.Threads),
		SwitchPenalty:   6, // refill IF/ID/SR plus thread-state swap
		SwitchThreshold: 3,
	}, nil
}

// Machine exposes the architectural state.
func (c *CoarseGrain) Machine() *machine.Machine { return c.mach }

// Run executes to completion (or maxCycles) with coarse-grain switching.
func (c *CoarseGrain) Run(maxCycles int64) (Result, error) {
	var res Result
	prog := c.mach.Decoded()
	cycle := int64(0)
	cur := 0
	// nextFree[t] is the earliest cycle thread t may issue again (covers
	// redirects and spawn starts).
	nextFree := make([]int64, c.cfg.Threads)
	limit := func() error {
		if maxCycles > 0 && cycle >= maxCycles {
			return fmt.Errorf("baseline: cycle limit %d reached", maxCycles)
		}
		return nil
	}

	idleScan := 0
	for !c.mach.Halted() {
		if err := limit(); err != nil {
			res.Cycles = cycle
			return res, err
		}
		if !c.mach.ThreadActive(cur) {
			cur = c.nextThread(cur)
			if cur < 0 {
				break
			}
			continue
		}
		pc := c.mach.PC(cur)
		if pc < 0 || pc >= prog.Len() {
			res.Cycles = cycle
			return res, fmt.Errorf("baseline: thread %d pc %d out of bounds", cur, pc)
		}
		d := prog.At(pc)
		minIssue, _ := c.sb.MinIssue(cur, d)
		if nf := nextFree[cur]; nf > minIssue {
			minIssue = nf
		}
		blocked := c.mach.BlockedDecoded(cur, d)
		projected := minIssue - cycle

		switch {
		case !blocked && projected <= 0:
			// Issue now.
			out, err := c.mach.ExecDecoded(cur, d)
			if err != nil {
				res.Cycles = cycle
				return res, err
			}
			c.sb.Record(cur, d, cycle)
			res.Instructions++
			if out.Redirect {
				nextFree[cur] = cycle + 1 + int64(c.params.ExecRedirect)
			} else {
				nextFree[cur] = cycle + 1
			}
			if out.Spawned >= 0 {
				c.sb.ClearThread(out.Spawned)
				nextFree[out.Spawned] = cycle + int64(c.params.SpawnStart)
			}
			cycle++
			idleScan = 0

		case !blocked && projected <= c.SwitchThreshold:
			// Short stall: absorb in place.
			cycle += projected
			idleScan = 0

		default:
			// Long stall or synchronization block: switch threads.
			next := c.nextThread(cur)
			if next == cur || next < 0 {
				// No other runnable thread: wait in place.
				if blocked {
					cycle++
					idleScan++
					if idleScan > 1_000_000 {
						res.Cycles = cycle
						return res, fmt.Errorf("baseline: deadlock at cycle %d", cycle)
					}
				} else {
					cycle += projected
				}
				continue
			}
			cur = next
			cycle += c.SwitchPenalty
			res.Switches++
		}
	}
	res.Cycles = cycle
	return res, nil
}

// nextThread returns the next active thread after cur (round robin), or -1.
func (c *CoarseGrain) nextThread(cur int) int {
	for i := 1; i <= c.cfg.Threads; i++ {
		t := (cur + i) % c.cfg.Threads
		if c.mach.ThreadActive(t) {
			return t
		}
	}
	return -1
}
