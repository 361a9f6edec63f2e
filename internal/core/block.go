// Block-plane dispatch: when exactly one hardware thread is active, the
// per-cycle fetch/classify/pick/issue loop is provably equivalent to a
// closed form — the thread's next issue cycle is max(eligible, scoreboard
// minimum, unit-free), every cycle before it is idle and attributed to the
// first binding threshold, and the fetch unit serves only that thread.
// runBlock exploits this to dispatch a whole basic block (isa.BuildBlocks)
// per entry: singleton micro-ops issue via the closed form on every live
// lane, and fused superinstructions execute in one machine.ExecFusedLanes
// call over every live lane, with per-constituent accounting replayed at
// their back-to-back issue cycles. Every counter the generic path maintains (cycles, stalls by
// kind, idle by kind, fetches, contention, completion drain) is updated
// identically, so the golden cycle tests hold with the block plane on or
// off, for one lane or many.
//
// The dispatcher falls back to the generic Step — counting why — at
// every surface the closed form does not cover: more than one active
// thread, an empty instruction buffer (redirect/refill), a pc outside
// every block (terminators: control flow and thread management), and a
// pending deadlock-window expiry (the per-cycle path owns that error).
// Per-lane traps need no fallback: a singleton goes through the same exec
// as the generic issue. In-block ops cannot diverge — they fall through on
// every lane — and fused kernels are trap-free and outcome-free by
// construction.
//
// This file is in the hot-path lint set: dispatch keys on precomputed
// micro-op selector fields only.
package core

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// BlocksMode selects whether the block-dispatch tier may engage.
type BlocksMode uint8

const (
	// BlocksAuto (default) dispatches block-at-a-time whenever the
	// configuration and the dynamic thread population allow it.
	BlocksAuto BlocksMode = iota
	// BlocksOff forces the per-cycle path everywhere (A/B baseline).
	BlocksOff
)

// String renders the mode for configuration fingerprints.
func (m BlocksMode) String() string {
	if m == BlocksOff {
		return "off"
	}
	return "auto"
}

// Block-dispatch fallback reasons, indexing the fixed counter array so
// the dispatcher itself never touches a map.
const (
	fbMultithread = iota // more than one thread active: lockstep closed form invalid
	fbRefill             // instruction buffer empty: redirect resolving or fetch catching up
	fbBoundary           // pc outside every block: a terminator owns this issue
	fbWindow             // deadlock window would expire inside the span
	numFallbacks
)

// fallbackReasons names the counters for Stats.BlockFallbacks and the
// asc_sim_block_fallbacks_total metric labels.
var fallbackReasons = [numFallbacks]string{"multithread", "refill", "boundary", "window"}

// soleState classifies the thread population for the block gate.
type soleState uint8

const (
	soleNone soleState = iota // no runnable thread (drain): fall back silently
	soleOne                   // exactly one thread active in machine and front end
	soleMany                  // anything else: per-cycle path required
)

// soleActive finds the single active thread, if there is exactly one.
// The closed form needs the machine view (idle attribution, the idle
// test) and the front-end view (fetch arbitration) to agree on one
// thread. Both are bitmasks, so the check is O(1) however many threads
// are live.
func (e *engine) soleActive() (int, soleState) {
	m, f := e.mActive, e.front.ActiveMask()
	if m&(m-1) != 0 || f&(f-1) != 0 {
		return -1, soleMany
	}
	if m != 0 && m == f {
		return bits.TrailingZeros64(m), soleOne
	}
	// At most one thread on each side but no agreement: a drain or
	// half-stopped state (e.g. post-HALT completion wind-down) that the
	// generic path owns; not a multithread decline.
	return -1, soleNone
}

// blockStep is the outcome of dispatching one in-block micro-op.
type blockStep uint8

const (
	stepIssued  blockStep = iota // issued; cycle advanced past the issue cycle
	stepStopped                  // stopAt reached first; cycle == stopAt
	stepNoHead                   // buffer empty mid-block; nothing changed
	stepBail                     // deadlock window pending; nothing changed
)

// accountGap replays the generic path over the idle gap [e.cycle, until),
// in which the sole active thread tid is the best blocker, and advances the
// clock to until. Idle cycles are attributed segment by binding threshold
// in classification order (fetch eligibility, then the scoreboard's
// binding hazard, then the sequential unit), and the fetch unit serves
// only tid.
func (e *engine) accountGap(tid int, eligible, minIssue int64, kind pipeline.HazardKind, free, until int64) {
	c := e.cycle
	if until <= c {
		return
	}
	if el := min(until, eligible); el > c {
		e.stats.IdleCycles += el - c
		e.idleByKind[pipeline.HazardFetch] += el - c
		c = el
	}
	if m := min(until, minIssue); m > c {
		e.stats.IdleCycles += m - c
		e.idleByKind[kind] += m - c
		c = m
	}
	if f := min(until, free); f > c {
		e.stats.IdleCycles += f - c
		e.idleByKind[pipeline.HazardStructural] += f - c
	}
	e.front.FetchRun(tid, e.cycle, until-1)
	e.cycle = until
}

// retire closes an in-block issue at cycle c like the generic path's
// scheduler rotation and same-cycle fetch.
func (e *engine) retire(tid int, c int64) {
	if e.cfg.Scheduler != SchedFixed {
		e.front.MarkPicked(tid)
	}
	e.front.FetchRun(tid, c, c)
}

// dispatchOne issues the head micro-op of tid at the earliest legal
// cycle, replaying idle, stall, and fetch accounting for every skipped
// cycle. On a trap that ends the last live lane the engine is left
// exactly where the generic path leaves it: op popped, stall recorded,
// cycle at the issue cycle, nothing else updated.
func (e *engine) dispatchOne(tid int, stopAt int64) (blockStep, error) {
	head, ok := e.front.Head(tid)
	if !ok {
		return stepNoHead, nil
	}
	d := head.D
	eligible := head.EligibleAt()
	minIssue, kind := e.sb.MinIssue(tid, d)
	free := e.unitFreeAt(d)
	issueC := max(e.cycle, eligible, minIssue, free)
	if issueC >= stopAt {
		// The issue lands at or past the stop cycle: account the idle
		// prefix up to stopAt and leave the op buffered.
		if stopAt-1-e.lastIssue > deadlockWindow {
			return stepBail, nil
		}
		e.accountGap(tid, eligible, minIssue, kind, free, stopAt)
		return stepStopped, nil
	}
	if issueC-1-e.lastIssue > deadlockWindow {
		// The generic path would raise the deadlock error inside this
		// idle span; let it.
		return stepBail, nil
	}
	e.accountGap(tid, eligible, minIssue, kind, free, issueC)

	// Issue at issueC, replicating issue for an in-block op (never a
	// control-flow, thread, or blocking micro-op): in-block ops produce the
	// same fall-through Outcome on every lane, so there is nothing to fork.
	e.popHead(tid)
	e.accountStall(eligible, issueC, minIssue, kind, free)
	if _, err := e.exec(tid, d); err != nil {
		return stepIssued, err
	}
	if e.split {
		panic("core: an in-block micro-op diverged")
	}
	e.record(tid, d, issueC)
	e.retire(tid, issueC)
	e.cycle = issueC + 1
	return stepIssued, nil
}

// dispatchFused issues a fused superinstruction in one machine call per
// lane when the closed form can prove the generic path would issue its
// constituents back to back: every constituent buffered and eligible at
// its staggered cycle, no external scoreboard dependence binding later
// (in-group dependences sustain one-cycle stagger by the fusion-set
// construction — see isa/blocks.go), and the whole group inside the stop
// window. Anything unproven falls back to singleton dispatch, which is
// always exact. Fused kernels are trap-free and outcome-free, so no lane
// can finalize or peel inside one.
func (e *engine) dispatchFused(tid int, bo *isa.BlockOp, stopAt int64) bool {
	k := len(bo.Ops)
	head, ok := e.front.Head(tid)
	if !ok || head.PC != bo.PC {
		return false
	}
	eligible := head.EligibleAt()
	minIssue, kind := e.sb.MinIssue(tid, bo.Ops[0])
	// Fusible ops never use a sequential unit (no mul/div), so free == 0.
	issueC := max(e.cycle, eligible, minIssue)
	if issueC+int64(k) > stopAt || issueC-1-e.lastIssue > deadlockWindow {
		return false
	}
	for j := 1; j < k; j++ {
		en, ok := e.front.Entry(tid, j)
		if !ok || en.PC != bo.PC+j || en.EligibleAt() > issueC+int64(j) {
			return false
		}
		// External dependences only; in-group producers (recorded below)
		// are always satisfied at stagger 1.
		if ext, _ := e.sb.MinIssue(tid, bo.Ops[j]); ext > issueC+int64(j) {
			return false
		}
	}
	e.accountGap(tid, eligible, minIssue, kind, 0, issueC)

	// One architectural call for the whole superinstruction on every live
	// lane (accounting below reads no machine state), then the
	// per-constituent issue bookkeeping at cycles issueC..issueC+k-1,
	// exactly as the generic path would have recorded it.
	machine.ExecFusedLanes(e.lanes, e.live, tid, bo.Ops)
	for j, d := range bo.Ops {
		c := issueC + int64(j)
		h := e.popHead(tid)
		mi, kd := e.sb.MinIssue(tid, d)
		e.accountStall(h.EligibleAt(), c, mi, kd, 0)
		e.record(tid, d, c)
		e.retire(tid, c)
	}
	e.cycle = issueC + int64(k)
	return true
}

// runBlock dispatches from the sole active thread's current block until
// the block ends, stopAt is reached, or a fallback surface appears. It
// reports whether it made progress; ran=false means the caller must take
// a generic Step.
func (e *engine) runBlock(stopAt int64) (ran bool, err error) {
	if len(e.live) == 0 {
		return false, nil
	}
	tid, st := e.soleActive()
	if st != soleOne {
		if st == soleMany {
			e.blockFallbacks[fbMultithread]++
		}
		return false, nil
	}
	head, ok := e.front.Head(tid)
	if !ok {
		e.blockFallbacks[fbRefill]++
		return false, nil
	}
	blk, opIdx, sub, ok := e.blocks.Lookup(head.PC)
	if !ok {
		e.blockFallbacks[fbBoundary]++
		return false, nil
	}
	e.blockDispatches++

	progressed := false
	for oi := opIdx; oi < len(blk.Ops); oi++ {
		bo := &blk.Ops[oi]
		if len(bo.Ops) > 1 && sub == 0 && e.dispatchFused(tid, bo, stopAt) {
			progressed = true
			continue
		}
		for ci := sub; ci < len(bo.Ops); ci++ {
			step, err := e.dispatchOne(tid, stopAt)
			if err != nil {
				return true, err
			}
			switch step {
			case stepIssued:
				progressed = true
			case stepStopped:
				return true, nil // idle prefix accounted: that is progress
			case stepNoHead:
				if progressed {
					return true, nil
				}
				e.blockFallbacks[fbRefill]++
				return false, nil
			case stepBail:
				if progressed {
					return true, nil
				}
				e.blockFallbacks[fbWindow]++
				return false, nil
			}
		}
		sub = 0
	}
	return true, nil
}
