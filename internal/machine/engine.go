package machine

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/isa"
)

// Engine selects the host execution strategy for parallel-class and
// reduction instructions. The choice is architecturally invisible: both
// engines produce bit-identical register, flag, memory, and reduction
// results (the differential tests in this package and internal/progs pin
// that), and neither appears in snapshot fingerprints, so snapshots move
// freely between engines.
type Engine uint8

const (
	// EngineAuto picks EngineParallel when the host has more than one CPU
	// and the PE array is at least AutoParallelThreshold wide; otherwise
	// EngineSerial, so small paper-scale runs never pay barrier overhead.
	EngineAuto Engine = iota
	// EngineSerial executes the PE array with a single-goroutine loop.
	EngineSerial
	// EngineParallel shards the PE range across a persistent worker pool,
	// barrier-synced per instruction.
	EngineParallel
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSerial:
		return "serial"
	case EngineParallel:
		return "parallel"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// AutoParallelThreshold is the PE count at which EngineAuto switches to the
// sharded engine. Below it, the per-instruction barrier costs more than the
// serial loop saves (a 16-PE paper run is ~100ns of work per instruction).
const AutoParallelThreshold = 256

// minShardPEs bounds how finely the PE range is sharded, so workers always
// have enough PEs per barrier to amortize the handoff.
const minShardPEs = 16

// workerSpinBudget is how many Gosched spins a worker burns waiting for the
// next instruction before parking on its wake channel. Back-to-back
// parallel instructions (the common case inside kernels) arrive well within
// the budget, so workers rarely park mid-program.
const workerSpinBudget = 128

// Job kinds dispatched to the pool; each maps to one range method.
const (
	jobParallel uint8 = iota + 1
	jobCount
	jobFirst
	jobFirstWrite
	jobReduce
)

// engine is the sharded PE-array executor: nsh-1 persistent worker
// goroutines plus the dispatching goroutine, each owning one contiguous
// shard of the PE range. Shards are aligned power-of-two blocks, so a
// per-shard reduction fold lands exactly on a subtree root of the global
// reduction tree and the roots merge bit-identically (the
// network.FoldInPlace sharding contract) — even for the non-associative
// saturating sum.
//
// Synchronization is a spin-then-park barrier: dispatch publishes the job,
// bumps the epoch, and wakes parked workers; each worker runs its shard and
// decrements pending. Workers spin briefly between instructions (kernels
// issue parallel work back to back) and park on a buffered channel when the
// gap is long. The parked-flag/epoch recheck on both sides makes the
// handoff missed-wakeup-free with seq-cst atomics.
//
// The pool never retains the Machine between barriers (the job slot is
// cleared after every dispatch), so an abandoned Machine remains
// collectable; its finalizer calls stop.
type engine struct {
	pes   int
	shard int // shard size: a power of two, so shards align with subtrees
	nsh   int // shard count; shard s covers [s*shard, min((s+1)*shard, pes))

	acc      []int64 // per-shard partials: subtree roots / counts / first indexes
	trapPE   []int64 // per-shard lowest faulting PE, or -1
	trapAddr []int64

	epoch   atomic.Uint64 // job generation, bumped once per dispatch
	pending atomic.Int64  // workers yet to finish the current job
	quit    atomic.Bool
	parked  []atomic.Int32  // parked[s]: worker s is blocked on wake[s]
	wake    []chan struct{} // buffered(1) wake tokens; [0] unused

	// The current job, valid only while a dispatch is in flight.
	jobM    *Machine
	jobKind uint8
	jobT    int
	jobD    *isa.Decoded
	jobArg  int
}

// newEngine sizes and starts a pool for a pes-wide array. It returns nil
// when the array is too small to split, in which case the machine falls
// back to the serial engine.
func newEngine(pes int) *engine {
	execs := runtime.GOMAXPROCS(0)
	if max := pes / minShardPEs; execs > max {
		execs = max
	}
	if execs < 2 {
		// Even on a single-CPU host a forced EngineParallel gets a real
		// two-shard pool, so the barrier logic is exercised (and raceable)
		// everywhere the config asks for it.
		execs = 2
	}
	shard := 1
	for shard*execs < pes {
		shard <<= 1
	}
	nsh := (pes + shard - 1) / shard
	if nsh < 2 {
		return nil
	}
	e := &engine{
		pes:      pes,
		shard:    shard,
		nsh:      nsh,
		acc:      make([]int64, nsh),
		trapPE:   make([]int64, nsh),
		trapAddr: make([]int64, nsh),
		parked:   make([]atomic.Int32, nsh),
		wake:     make([]chan struct{}, nsh),
	}
	for s := 1; s < nsh; s++ {
		e.wake[s] = make(chan struct{}, 1)
		go e.worker(s)
	}
	return e
}

// stop shuts the pool down; idempotent. Called by Machine.Close and the
// machine finalizer.
func (e *engine) stop() {
	if e.quit.Swap(true) {
		return
	}
	for s := 1; s < e.nsh; s++ {
		select {
		case e.wake[s] <- struct{}{}:
		default:
		}
	}
}

// run executes one barrier-synced job across all shards: the calling
// goroutine works shard 0 while the pool covers the rest, then spins until
// every worker checks in. On return all per-shard outputs are visible
// (pending's release/acquire pairing) and the job slot is cleared.
func (e *engine) run(m *Machine, kind uint8, t int, d *isa.Decoded, arg int) {
	e.jobM, e.jobKind, e.jobT, e.jobD, e.jobArg = m, kind, t, d, arg
	e.pending.Store(int64(e.nsh - 1))
	e.epoch.Add(1)
	for s := 1; s < e.nsh; s++ {
		if e.parked[s].Load() != 0 {
			select {
			case e.wake[s] <- struct{}{}:
			default:
			}
		}
	}
	e.runShard(0)
	for e.pending.Load() != 0 {
		runtime.Gosched()
	}
	e.jobM, e.jobD = nil, nil
}

// worker is the body of pool goroutine s: wait for an unseen epoch, run the
// shard, check in, repeat until quit.
func (e *engine) worker(s int) {
	var seen uint64
	for {
		spins := 0
		for {
			if e.quit.Load() {
				return
			}
			if cur := e.epoch.Load(); cur != seen {
				seen = cur
				break
			}
			if spins < workerSpinBudget {
				spins++
				runtime.Gosched()
				continue
			}
			// Park. The dispatcher bumps epoch before reading parked, and
			// we recheck epoch after setting parked, so one side always
			// sees the other (Dekker-style, seq-cst atomics): a wakeup
			// cannot be lost. A stale token from an earlier race is a
			// harmless spurious wake.
			e.parked[s].Store(1)
			if e.epoch.Load() != seen || e.quit.Load() {
				e.parked[s].Store(0)
				continue
			}
			<-e.wake[s]
			e.parked[s].Store(0)
		}
		e.runShard(s)
		e.pending.Add(-1)
	}
}

// runShard executes the current job on shard s's PE range.
func (e *engine) runShard(s int) {
	lo := s * e.shard
	hi := lo + e.shard
	if hi > e.pes {
		hi = e.pes
	}
	m := e.jobM
	switch e.jobKind {
	case jobParallel:
		pe, addr := m.execParallelRange(e.jobT, e.jobD, lo, hi)
		e.trapPE[s], e.trapAddr[s] = int64(pe), int64(addr)
	case jobCount:
		e.acc[s] = m.countRange(e.jobT, e.jobD, lo, hi)
	case jobFirst:
		e.acc[s] = int64(m.firstRange(e.jobT, e.jobD, lo, hi))
	case jobFirstWrite:
		m.rfirstWriteRange(e.jobT, e.jobD, e.jobArg, lo, hi)
	case jobReduce:
		// Fold this shard to its subtree root. Aligned power-of-two
		// shards make [lo, hi) exactly one subtree of the sum's tree.
		e.acc[s] = m.reduceRange(e.jobT, e.jobD, lo, hi)
	}
}

// parallel runs a parallel-class micro-op and merges trap reports to the
// lowest faulting PE.
func (e *engine) parallel(m *Machine, t int, d *isa.Decoded) (trapPE, trapAddr int) {
	e.run(m, jobParallel, t, d, 0)
	for s := 0; s < e.nsh; s++ {
		if e.trapPE[s] >= 0 {
			return int(e.trapPE[s]), int(e.trapAddr[s])
		}
	}
	return -1, 0
}

// count sums per-shard responder counts (RCOUNT/RANY).
func (e *engine) count(m *Machine, t int, d *isa.Decoded) int64 {
	e.run(m, jobCount, t, d, 0)
	var n int64
	for s := 0; s < e.nsh; s++ {
		n += e.acc[s]
	}
	return n
}

// first min-merges per-shard first-responder indexes; e.pes means none.
func (e *engine) first(m *Machine, t int, d *isa.Decoded) int {
	e.run(m, jobFirst, t, d, 0)
	first := int64(e.pes)
	for s := 0; s < e.nsh; s++ {
		if e.acc[s] < first {
			first = e.acc[s]
		}
	}
	return int(first)
}

// firstWrite distributes the resolver writeback (RFIRST's flag update).
func (e *engine) firstWrite(m *Machine, t int, d *isa.Decoded, winner int) {
	if d.Inst.Rd == 0 {
		return // writes to f0 are dropped; skip the barrier
	}
	e.run(m, jobFirstWrite, t, d, winner)
}

// reduce runs a value reduction: shards fold to subtree roots, and merging
// the roots completes the global value bit-identically.
func (e *engine) reduce(m *Machine, t int, d *isa.Decoded) int64 {
	e.run(m, jobReduce, t, d, 0)
	return m.mergeRoots(d.Reduce, e.acc[:e.nsh])
}
