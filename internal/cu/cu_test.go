package cu

import (
	"testing"

	"repro/internal/isa"
)

func prog(n int) *isa.DecodedProgram {
	p := make([]isa.Inst, n)
	for i := range p {
		p[i] = isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: int32(i)}
	}
	dp, err := isa.DecodeProgram(p)
	if err != nil {
		panic(err)
	}
	return dp
}

func TestFetchFillsBufferInOrder(t *testing.T) {
	c, err := New(Config{Threads: 1, BufferDepth: 4}, prog(10))
	if err != nil {
		t.Fatal(err)
	}
	for cycle := int64(0); cycle < 4; cycle++ {
		c.Fetch(cycle)
	}
	if got := bufferLen(c, 0); got != 4 {
		t.Fatalf("buffer len = %d, want 4 (full)", got)
	}
	// Buffer full: further fetches are held.
	c.Fetch(4)
	if got := bufferLen(c, 0); got != 4 {
		t.Errorf("overfilled buffer: %d", got)
	}
	head, ok := c.Head(0)
	if !ok || head.PC != 0 || head.FetchCycle != 0 {
		t.Fatalf("head = %+v, want PC 0 fetched at 0", head)
	}
	if head.EligibleAt() != 2 {
		t.Errorf("eligible at %d, want 2 (IF, ID, SR)", head.EligibleAt())
	}
	c.PopHead(0)
	head, _ = c.Head(0)
	if head.PC != 1 {
		t.Errorf("after pop, head PC = %d, want 1", head.PC)
	}
}

func TestFetchRoundRobinAcrossThreads(t *testing.T) {
	c, err := New(Config{Threads: 4, BufferDepth: 2, FetchWidth: 1}, prog(20))
	if err != nil {
		t.Fatal(err)
	}
	for tid := 1; tid < 4; tid++ {
		c.StartThread(tid, 5, 0)
	}
	// One fetch per cycle shared across 4 threads.
	for cycle := int64(0); cycle < 4; cycle++ {
		c.Fetch(cycle)
	}
	for tid := 0; tid < 4; tid++ {
		if got := bufferLen(c, tid); got != 1 {
			t.Errorf("thread %d buffer = %d, want 1 (fair round robin)", tid, got)
		}
	}
	if c.Fetches != 4 {
		t.Errorf("fetch counter = %d, want 4", c.Fetches)
	}
}

func TestFetchWidth(t *testing.T) {
	c, _ := New(Config{Threads: 4, BufferDepth: 4, FetchWidth: 2}, prog(20))
	c.StartThread(1, 0, 0)
	c.Fetch(0)
	total := bufferLen(c, 0) + bufferLen(c, 1)
	if total != 2 {
		t.Errorf("fetched %d instructions in one cycle, want 2", total)
	}
}

// TestFetchWidthSkipsAfterServed pins the fetch arbiter's order with
// FetchWidth >= 2: the round-robin pointer moves to each thread as it is
// served, inside the scan, so the next slot goes to the thread two past it
// and the one in between waits a cycle. With four threads from cycle 0 the
// first cycle fills threads 1 and 3, not 1 and 2. The SMT timing (which
// doubles the fetch width) depends on this order.
func TestFetchWidthSkipsAfterServed(t *testing.T) {
	c, _ := New(Config{Threads: 4, BufferDepth: 4, FetchWidth: 2}, prog(20))
	for tid := 1; tid < 4; tid++ {
		c.StartThread(tid, 0, 0)
	}
	want := [][4]int{{0, 1, 0, 1}, {1, 1, 1, 1}, {1, 2, 1, 2}, {2, 2, 2, 2}}
	for cycle, w := range want {
		c.Fetch(int64(cycle))
		var got [4]int
		for tid := range got {
			got[tid] = bufferLen(c, tid)
		}
		if got != w {
			t.Fatalf("after cycle %d buffers = %v, want %v", cycle, got, w)
		}
	}
}

// TestFetchReportsRefills pins Fetch's result: the threads whose buffer it
// filled from empty, and none whose buffer already held an entry.
func TestFetchReportsRefills(t *testing.T) {
	c, _ := New(Config{Threads: 4, BufferDepth: 4, FetchWidth: 2}, prog(20))
	c.StartThread(1, 0, 0)
	if got := c.Fetch(0); got != 0b11 {
		t.Fatalf("cycle 0 refilled %04b, want 0011", got)
	}
	if got := c.Fetch(1); got != 0 {
		t.Fatalf("cycle 1 refilled %04b, want none (both buffers held an entry)", got)
	}
	c.PopHead(1)
	c.PopHead(1)
	if got := c.Fetch(2); got != 0b10 {
		t.Fatalf("cycle 2 refilled %04b, want 0010", got)
	}
}

func TestFetchHold(t *testing.T) {
	c, _ := New(Config{Threads: 1}, prog(10))
	c.StartThread(0, 0, 5)
	c.Fetch(4)
	if bufferLen(c, 0) != 0 {
		t.Error("fetched before hold expired")
	}
	c.Fetch(5)
	if bufferLen(c, 0) != 1 {
		t.Error("did not fetch once hold expired")
	}
}

func TestRedirectFlushes(t *testing.T) {
	c, _ := New(Config{Threads: 1, BufferDepth: 4}, prog(10))
	for cycle := int64(0); cycle < 3; cycle++ {
		c.Fetch(cycle)
	}
	c.Redirect(0, 7, 6)
	if bufferLen(c, 0) != 0 {
		t.Error("redirect did not flush the buffer")
	}
	if c.Flushes != 3 {
		t.Errorf("flush counter = %d, want 3", c.Flushes)
	}
	c.Fetch(5)
	if bufferLen(c, 0) != 0 {
		t.Error("fetched before redirect resume cycle")
	}
	c.Fetch(6)
	head, ok := c.Head(0)
	if !ok || head.PC != 7 {
		t.Errorf("after redirect head = %+v, want PC 7", head)
	}
}

func TestFetchStopsAtProgramEnd(t *testing.T) {
	c, _ := New(Config{Threads: 1, BufferDepth: 8}, prog(2))
	for cycle := int64(0); cycle < 5; cycle++ {
		c.Fetch(cycle)
	}
	if got := bufferLen(c, 0); got != 2 {
		t.Errorf("buffer len = %d, want 2 (no fetch past the end)", got)
	}
}

func TestStopThreadClearsState(t *testing.T) {
	c, _ := New(Config{Threads: 2}, prog(10))
	c.Fetch(0)
	c.StopThread(0)
	if c.Active(0) {
		t.Error("thread still active after stop")
	}
	if _, ok := c.Head(0); ok {
		t.Error("stopped thread still has buffered instructions")
	}
}

func TestRotatingPriorityIsFair(t *testing.T) {
	c, _ := New(Config{Threads: 4}, prog(100))
	for tid := 1; tid < 4; tid++ {
		c.StartThread(tid, 0, 0)
	}
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		tid := c.PickRotating(0b1111)
		if tid < 0 {
			t.Fatal("no thread picked")
		}
		counts[tid]++
	}
	for tid, n := range counts {
		if n != 100 {
			t.Errorf("thread %d issued %d times, want exactly 100 (rotating priority)", tid, n)
		}
	}
}

func TestRotatingPrioritySkipsNotReady(t *testing.T) {
	c, _ := New(Config{Threads: 4}, prog(10))
	for tid := 1; tid < 4; tid++ {
		c.StartThread(tid, 0, 0)
	}
	for i := 0; i < 5; i++ {
		if got := c.PickRotating(1 << 2); got != 2 {
			t.Fatalf("picked %d, want 2", got)
		}
	}
	if got := c.PickRotating(0); got != -1 {
		t.Errorf("picked %d with nothing ready, want -1", got)
	}
}

// TestRotatingPriorityOrder pins the rotation over a ready bitmask: the
// first ready thread after the last pick, wrapping, with MarkPicked and
// PickRotating moving the same pointer and PickFixed leaving it alone.
// Thread 63 exercises the wrap at the top of the mask.
func TestRotatingPriorityOrder(t *testing.T) {
	c, _ := New(Config{Threads: 64}, prog(10))
	for tid := 1; tid < 64; tid++ {
		c.StartThread(tid, 0, 0)
	}
	const ready = 1<<2 | 1<<5 | 1<<63
	for i, want := range []int{2, 5, 63, 2, 5} {
		if got := c.PickRotating(ready); got != want {
			t.Fatalf("pick %d = %d, want %d", i, got, want)
		}
	}
	c.MarkPicked(3)
	if got := c.PickFixed(ready); got != 2 {
		t.Fatalf("fixed pick = %d, want 2", got)
	}
	if got := c.PickRotating(ready); got != 5 {
		t.Fatalf("pick after MarkPicked(3) = %d, want 5", got)
	}
	c.MarkPicked(63)
	if got := c.PickRotating(ready); got != 2 {
		t.Fatalf("pick after MarkPicked(63) = %d, want 2 (wrap)", got)
	}
	c.StopThread(5)
	if got := c.PickRotating(ready); got != 63 {
		t.Fatalf("pick with 5 stopped = %d, want 63", got)
	}
}

func TestFixedPriorityIsUnfair(t *testing.T) {
	c, _ := New(Config{Threads: 4}, prog(10))
	for tid := 1; tid < 4; tid++ {
		c.StartThread(tid, 0, 0)
	}
	counts := make([]int, 4)
	for i := 0; i < 100; i++ {
		counts[c.PickFixed(0b1111)]++
	}
	if counts[0] != 100 {
		t.Errorf("fixed priority should starve others: counts=%v", counts)
	}
}

func TestInactiveThreadsNeverPicked(t *testing.T) {
	c, _ := New(Config{Threads: 4}, prog(10))
	// Only thread 0 is active.
	for i := 0; i < 8; i++ {
		if got := c.PickRotating(0b1111); got != 0 {
			t.Fatalf("picked inactive thread %d", got)
		}
	}
	if got := c.PickFixed(0b1110); got != -1 {
		t.Fatalf("fixed pick among inactive threads = %d, want -1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Threads: 0}, prog(1)); err == nil {
		t.Error("Threads=0 accepted")
	}
	if _, err := New(Config{Threads: 65}, prog(1)); err == nil {
		t.Error("Threads=65 accepted: thread sets are 64-bit masks")
	}
	if _, err := New(Config{Threads: 1, BufferDepth: -1}, prog(1)); err == nil {
		t.Error("negative buffer depth accepted")
	}
	c, err := New(Config{Threads: 2}, prog(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.BufferDepth != 4 || c.cfg.FetchWidth != 1 {
		t.Errorf("defaults = %+v", c.cfg)
	}
}

func TestDescribeMentionsComponents(t *testing.T) {
	c, _ := New(Config{Threads: 16}, prog(1))
	d := c.Describe()
	for _, frag := range []string{"fetch unit", "thread status", "decode units", "scheduler", "rotating priority", "scalar datapath"} {
		if !contains(d, frag) {
			t.Errorf("Describe missing %q", frag)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// bufferLen is the occupancy of tid's instruction buffer.
func bufferLen(c *CU, tid int) int { return len(c.threads[tid].buffer) }
