// Package cu models the control unit front end of the MTASC processor
// (Figure 3 of the paper): the fetch unit with per-thread instruction
// buffers, the thread status table, per-thread decode, and the
// rotating-priority scheduler that selects one ready thread per cycle.
//
// The fetch unit fetches up to FetchWidth instructions per cycle from the
// single-ported instruction memory, filling the buffers of active threads in
// round-robin order. An instruction fetched at cycle f is decoded at f+1 and
// may enter SR (issue) at f+2 or later. Fetch runs ahead speculatively with
// a predict-not-taken policy; when an issued instruction redirects (taken
// branch, jump, or thread start) the thread's buffer is flushed and fetch
// resumes at the new target after the redirect resolves.
//
// Thread sets are uint64 bitmasks, bit t for thread t (at most 64
// contexts): the active set, the threads Fetch refilled from empty, and
// the ready set the schedulers pick from. Readiness itself is the caller's
// classification; the schedulers only choose among the threads it offers,
// like the hardware's priority encoder over ready contexts.
package cu

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/isa"
)

// Config sets the front-end geometry.
type Config struct {
	Threads     int
	BufferDepth int // instruction buffer entries per thread
	FetchWidth  int // instructions fetched per cycle (shared across threads)
}

// Validate fills defaults and checks ranges.
func (c *Config) Validate() error {
	if c.BufferDepth == 0 {
		c.BufferDepth = 4
	}
	if c.FetchWidth == 0 {
		c.FetchWidth = 1
	}
	if c.Threads < 1 || c.Threads > 64 {
		return fmt.Errorf("cu: Threads must be in [1, 64], got %d", c.Threads)
	}
	if c.BufferDepth < 1 || c.FetchWidth < 1 {
		return fmt.Errorf("cu: BufferDepth and FetchWidth must be >= 1")
	}
	return nil
}

// Fetched is one instruction-buffer entry. D points into the decoded
// program's backing store: the buffers deliver pre-decoded micro-ops, so
// decode happens once per program, not once per fetch.
type Fetched struct {
	PC         int
	D          *isa.Decoded
	FetchCycle int64
}

// EligibleAt is the first cycle the entry may issue: fetched at f, decoded
// during f+1, SR at f+2.
func (f Fetched) EligibleAt() int64 { return f.FetchCycle + 2 }

// threadCtl is one row of the thread status table: the thread's fetch PC
// and instruction buffer (section 6.3); its state is its bit in CU.active.
type threadCtl struct {
	fetchPC   int
	fetchHold int64 // no fetch before this cycle (redirect/spawn resolution)
	buffer    []Fetched
}

// CU is the control unit front end.
type CU struct {
	cfg     Config
	prog    *isa.DecodedProgram
	threads []threadCtl
	active  uint64 // bit t: context t is live in the thread status table

	fetchRR int // round-robin pointer for fetch arbitration
	schedRR int // rotating-priority pointer for issue selection

	// Counters for statistics.
	Fetches int64
	Flushes int64
}

// New builds the front end for a decoded program. Thread 0 is started at
// PC 0.
func New(cfg Config, prog *isa.DecodedProgram) (*CU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &CU{cfg: cfg, prog: prog, threads: make([]threadCtl, cfg.Threads)}
	c.StartThread(0, 0, 0)
	return c, nil
}

// Reset returns the front end to power-on state on a (possibly new)
// program: every context stopped and its buffer emptied, the round-robin
// pointers rewound, the fetch/flush counters cleared, and thread 0 fetching
// from PC 0 — exactly the state New produces.
func (c *CU) Reset(prog *isa.DecodedProgram) {
	c.prog = prog
	for tid := range c.threads {
		c.StopThread(tid)
	}
	c.fetchRR, c.schedRR = 0, 0
	c.Fetches, c.Flushes = 0, 0
	c.StartThread(0, 0, 0)
}

// Clone returns an independent copy of the front end: the thread status
// table with each thread's instruction buffer, the round-robin pointers,
// and the counters.
func (c *CU) Clone() *CU {
	d := *c
	d.threads = slices.Clone(c.threads)
	for i, t := range c.threads {
		d.threads[i].buffer = append(make([]Fetched, 0, c.cfg.BufferDepth), t.buffer...)
	}
	return &d
}

// StartThread activates a context fetching from pc; its first fetch happens
// no earlier than cycle firstFetch.
func (c *CU) StartThread(tid, pc int, firstFetch int64) {
	t := &c.threads[tid]
	c.active |= 1 << tid
	t.fetchPC = pc
	t.fetchHold = firstFetch
	t.buffer = t.buffer[:0]
}

// StopThread frees a context (TEXIT or HALT).
func (c *CU) StopThread(tid int) {
	c.active &^= 1 << tid
	c.threads[tid].buffer = c.threads[tid].buffer[:0]
}

// Active reports whether the context is live in the thread status table.
func (c *CU) Active(tid int) bool { return c.active>>tid&1 != 0 }

// ActiveMask returns the live contexts as a bitmask.
func (c *CU) ActiveMask() uint64 { return c.active }

// Fetch runs the fetch unit for one cycle: up to FetchWidth instructions are
// fetched for active threads with buffer space, one per thread, scanning
// round-robin from the thread after fetchRR. fetchRR moves to each thread
// as it is served, inside the scan, so with FetchWidth >= 2 the next slot
// goes to the thread two past the one just served, and the thread in
// between waits for a later cycle. It returns the threads whose buffer
// this cycle refilled from empty: their head appeared.
func (c *CU) Fetch(cycle int64) (refilled uint64) {
	n := len(c.threads)
	slots := c.cfg.FetchWidth
	for scan := 0; scan < n && slots > 0; scan++ {
		tid := (c.fetchRR + 1 + scan) % n
		t := &c.threads[tid]
		if c.active>>tid&1 == 0 || t.fetchHold > cycle || len(t.buffer) >= c.cfg.BufferDepth {
			continue
		}
		if t.fetchPC < 0 || t.fetchPC >= c.prog.Len() {
			continue // ran past the end; a redirect or halt must intervene
		}
		if len(t.buffer) == 0 {
			refilled |= 1 << tid
		}
		t.buffer = append(t.buffer, Fetched{PC: t.fetchPC, D: c.prog.At(t.fetchPC), FetchCycle: cycle})
		t.fetchPC++
		c.fetchRR = tid
		c.Fetches++
		slots--
	}
	return refilled
}

// FetchRun replays the fetch unit for thread tid alone over the cycle
// span [from, to]: the block dispatcher uses it to keep front-end state
// and fetch accounting exact while skipping the per-cycle loop. With a
// single active thread the fetch unit serves only tid (inactive threads
// are skipped by the round-robin scan), at most one instruction per
// cycle, so the replay is cycle-for-cycle identical to calling Fetch. The
// caller must ensure tid is the only active thread over the span.
func (c *CU) FetchRun(tid int, from, to int64) {
	t := &c.threads[tid]
	if !c.Active(tid) {
		return
	}
	cyc := from
	if t.fetchHold > cyc {
		cyc = t.fetchHold
	}
	for ; cyc <= to; cyc++ {
		// No pops happen inside a replay span, so a full buffer stays
		// full and an exhausted fetch PC stays exhausted: stop for good.
		if len(t.buffer) >= c.cfg.BufferDepth {
			return
		}
		if t.fetchPC < 0 || t.fetchPC >= c.prog.Len() {
			return
		}
		t.buffer = append(t.buffer, Fetched{PC: t.fetchPC, D: c.prog.At(t.fetchPC), FetchCycle: cyc})
		t.fetchPC++
		c.fetchRR = tid
		c.Fetches++
	}
}

// Entry returns buffer entry i of thread tid (i 0 is the head). The fused
// dispatcher inspects upcoming entries to verify a whole superinstruction
// is buffered and eligible before issuing it in one shot.
func (c *CU) Entry(tid, i int) (Fetched, bool) {
	t := &c.threads[tid]
	if !c.Active(tid) || i >= len(t.buffer) {
		return Fetched{}, false
	}
	return t.buffer[i], true
}

// MarkPicked records tid as the most recent rotating-priority selection,
// exactly as PickRotating would have. The block dispatcher issues without
// running the picker (with one active thread the pick is forced), but the
// pointer must track it so a later multi-thread phase resumes the same
// rotation the per-cycle path would have.
func (c *CU) MarkPicked(tid int) { c.schedRR = tid }

// Head returns the next instruction in program order for tid, if buffered.
func (c *CU) Head(tid int) (Fetched, bool) {
	t := &c.threads[tid]
	if !c.Active(tid) || len(t.buffer) == 0 {
		return Fetched{}, false
	}
	return t.buffer[0], true
}

// PopHead removes the head entry after it issues.
func (c *CU) PopHead(tid int) Fetched {
	t := &c.threads[tid]
	if len(t.buffer) == 0 {
		panic("cu: PopHead on empty buffer")
	}
	head := t.buffer[0]
	copy(t.buffer, t.buffer[1:])
	t.buffer = t.buffer[:len(t.buffer)-1]
	return head
}

// Redirect flushes tid's buffer and restarts fetch at newPC, no earlier
// than resumeFetch. Used for taken branches, jumps, and JR.
func (c *CU) Redirect(tid, newPC int, resumeFetch int64) {
	t := &c.threads[tid]
	c.Flushes += int64(len(t.buffer))
	t.buffer = t.buffer[:0]
	t.fetchPC = newPC
	t.fetchHold = resumeFetch
}

// PickRotating selects one active thread from the ready bitmask using the
// rotating priority policy: the first ready thread after the one picked
// most recently, wrapping around, which guarantees every ready thread
// issues within Threads cycles (fairness, section 6.3). The pick becomes
// the new rotation point, as with MarkPicked. It returns -1 (and leaves
// the rotation alone) if no active thread is ready.
func (c *CU) PickRotating(ready uint64) int {
	ready &= c.active
	if ready == 0 {
		return -1
	}
	// Bits above schedRR first; a shift of 64 clears the mask, wrapping.
	tid := bits.TrailingZeros64(ready)
	if after := ready >> (c.schedRR + 1) << (c.schedRR + 1); after != 0 {
		tid = bits.TrailingZeros64(after)
	}
	c.schedRR = tid
	return tid
}

// PickFixed selects the lowest-numbered active thread in the ready bitmask
// (a deliberately unfair baseline policy for the scheduler ablation
// experiment), or -1 if there is none. It does not move the rotation.
func (c *CU) PickFixed(ready uint64) int {
	if ready &= c.active; ready != 0 {
		return bits.TrailingZeros64(ready)
	}
	return -1
}

// Describe renders the control unit organization (Figure 3 of the paper).
func (c *CU) Describe() string {
	return fmt.Sprintf(`control unit organization (Figure 3):
  fetch unit:    %d instruction(s)/cycle from instruction memory
  thread status: %d contexts (PC, state, instruction buffer of %d entries each)
  decode units:  %d (one per hardware thread, decoding in parallel)
  scheduler:     rotating priority, issues 1 instruction/cycle to the scalar
                 datapath or the PE array via the broadcast network
  scalar datapath: organization nearly identical to a PE, plus branch,
                 fork and join handling
`, c.cfg.FetchWidth, len(c.threads), c.cfg.BufferDepth, len(c.threads))
}
