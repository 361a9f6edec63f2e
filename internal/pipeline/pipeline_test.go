package pipeline

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// dec decodes a single instruction for scoreboard/timing calls, which now
// take pre-decoded micro-ops.
func dec(t *testing.T, in isa.Inst) *isa.Decoded {
	t.Helper()
	d, err := isa.DecodeInst(in)
	if err != nil {
		t.Fatalf("decode %v: %v", in, err)
	}
	return &d
}

// paperParams is the Figure-1/Figure-2 configuration: two broadcast stages
// (B1-B2) and four reduction stages (R1-R4), i.e. 16 PEs with a 4-ary
// broadcast tree.
func paperParams() Params { return DefaultParams(16, 4, 8) }

func TestPaperConfiguration(t *testing.T) {
	p := paperParams()
	if p.B != 2 || p.R != 4 {
		t.Fatalf("paper config: b=%d r=%d, want b=2 r=4 (Figure 1)", p.B, p.R)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastHazardForwarded reproduces the top example of Figure 2: the
// result of a scalar SUB is forwarded from EX to B1, so a dependent PADD
// can issue on the very next cycle with zero stalls.
func TestBroadcastHazardForwarded(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	sub := isa.Inst{Op: isa.SUB, Rd: 1, Ra: 2, Rb: 3}
	padd := isa.Inst{Op: isa.PADD, Rd: 1, Ra: 2, Rb: 1, SB: true} // broadcast s1

	sb.Record(0, dec(t, sub), 10)
	minIssue, kind := sb.MinIssue(0, dec(t, padd))
	if minIssue != 11 {
		t.Errorf("PADD min issue = %d, want 11 (back to back, zero stall)", minIssue)
	}
	if kind != HazardBroadcast {
		t.Errorf("hazard = %v, want broadcast", kind)
	}
}

// TestReductionHazardStall reproduces the middle example of Figure 2: a
// scalar SUB consuming an RMAX result stalls for b+r cycles.
func TestReductionHazardStall(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	rmax := isa.Inst{Op: isa.RMAX, Rd: 1, Ra: 2}
	sub := isa.Inst{Op: isa.SUB, Rd: 3, Ra: 1, Rb: 4}

	sb.Record(0, dec(t, rmax), 10)
	minIssue, kind := sb.MinIssue(0, dec(t, sub))
	want := int64(10) + int64(p.B) + int64(p.R) + 1 // t + b + r + 1
	if minIssue != want {
		t.Errorf("SUB min issue = %d, want %d (stall of b+r=%d cycles)", minIssue, want, p.B+p.R)
	}
	if kind != HazardReduction {
		t.Errorf("hazard = %v, want reduction", kind)
	}
}

// TestBroadcastReductionHazardStall reproduces the bottom example of
// Figure 2: a PADD consuming an RMAX result stalls for b+r cycles.
func TestBroadcastReductionHazardStall(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	rmax := isa.Inst{Op: isa.RMAX, Rd: 1, Ra: 2}
	padd := isa.Inst{Op: isa.PADD, Rd: 3, Ra: 2, Rb: 1, SB: true}

	sb.Record(0, dec(t, rmax), 10)
	minIssue, kind := sb.MinIssue(0, dec(t, padd))
	want := int64(10) + int64(p.B) + int64(p.R) + 1
	if minIssue != want {
		t.Errorf("PADD min issue = %d, want %d", minIssue, want)
	}
	if kind != HazardBroadcastReduction {
		t.Errorf("hazard = %v, want broadcast-reduction", kind)
	}
}

func TestStallGrowsWithPEs(t *testing.T) {
	prev := int64(0)
	for _, pes := range []int{4, 16, 64, 256, 1024, 4096} {
		p := DefaultParams(pes, 4, 8)
		sb := NewScoreboard(p, 1)
		sb.Record(0, dec(t, isa.Inst{Op: isa.RMAX, Rd: 1, Ra: 2}), 0)
		minIssue, _ := sb.MinIssue(0, dec(t, isa.Inst{Op: isa.ADD, Rd: 3, Ra: 1}))
		stall := minIssue - 1
		if stall != int64(p.B+p.R) {
			t.Errorf("p=%d: stall %d, want b+r=%d", pes, stall, p.B+p.R)
		}
		if stall < prev {
			t.Errorf("p=%d: stall %d decreased from %d", pes, stall, prev)
		}
		prev = stall
	}
}

func TestParallelToParallelForwarded(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	sb.Record(0, dec(t, isa.Inst{Op: isa.PADD, Rd: 1, Ra: 2, Rb: 3}), 5)
	minIssue, kind := sb.MinIssue(0, dec(t, isa.Inst{Op: isa.PSUB, Rd: 4, Ra: 1, Rb: 2}))
	if minIssue != 6 {
		t.Errorf("dependent parallel op min issue = %d, want 6 (PE-local forwarding)", minIssue)
	}
	if kind != HazardData {
		t.Errorf("hazard = %v, want data", kind)
	}
}

func TestLoadUseBubbles(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	// Scalar load-use: one bubble.
	sb.Record(0, dec(t, isa.Inst{Op: isa.LW, Rd: 1, Ra: 0}), 5)
	minIssue, _ := sb.MinIssue(0, dec(t, isa.Inst{Op: isa.ADD, Rd: 2, Ra: 1}))
	if minIssue != 7 {
		t.Errorf("scalar load-use min issue = %d, want 7", minIssue)
	}
	// Parallel load-use: one bubble.
	sb.Record(0, dec(t, isa.Inst{Op: isa.PLW, Rd: 1, Ra: 0}), 5)
	minIssue, _ = sb.MinIssue(0, dec(t, isa.Inst{Op: isa.PADD, Rd: 2, Ra: 1, Rb: 0}))
	if minIssue != 7 {
		t.Errorf("parallel load-use min issue = %d, want 7", minIssue)
	}
}

func TestScalarLoadToParallelConsumer(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	sb.Record(0, dec(t, isa.Inst{Op: isa.LW, Rd: 1, Ra: 0}), 5)
	minIssue, kind := sb.MinIssue(0, dec(t, isa.Inst{Op: isa.PADD, Rd: 2, Ra: 3, Rb: 1, SB: true}))
	if minIssue != 7 {
		t.Errorf("load->broadcast min issue = %d, want 7", minIssue)
	}
	if kind != HazardBroadcast {
		t.Errorf("hazard = %v, want broadcast", kind)
	}
}

func TestFlagDependences(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	// Compare produces a flag; a masked parallel op consumes it PE-locally.
	sb.Record(0, dec(t, isa.Inst{Op: isa.PCLT, Rd: 1, Ra: 2, Rb: 3}), 5)
	minIssue, _ := sb.MinIssue(0, dec(t, isa.Inst{Op: isa.PADD, Rd: 4, Ra: 2, Rb: 3, Mask: 1}))
	if minIssue != 6 {
		t.Errorf("compare->masked op min issue = %d, want 6", minIssue)
	}
	// A reduction consuming the same flag as its responder set.
	minIssue, _ = sb.MinIssue(0, dec(t, isa.Inst{Op: isa.RCOUNT, Rd: 5, Ra: 1}))
	if minIssue != 6 {
		t.Errorf("compare->rcount min issue = %d, want 6", minIssue)
	}
}

func TestResolverResultTiming(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	// RFIRST produces a parallel flag value written back into the PEs at
	// t+b+r+2; a PE-side consumer needs it at t_c+b+2, so t_c >= t+r.
	sb.Record(0, dec(t, isa.Inst{Op: isa.RFIRST, Rd: 2, Ra: 1}), 10)
	minIssue, kind := sb.MinIssue(0, dec(t, isa.Inst{Op: isa.POR, Rd: 3, Ra: 0, Rb: 0, Mask: 2}))
	want := int64(10 + p.R)
	if minIssue != want {
		t.Errorf("rfirst->masked op min issue = %d, want %d", minIssue, want)
	}
	if kind != HazardBroadcastReduction {
		t.Errorf("hazard = %v, want broadcast-reduction", kind)
	}
}

func TestWAWHeld(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	// RMAX writes s1 late; a following ADD writing s1 must not complete
	// first.
	sb.Record(0, dec(t, isa.Inst{Op: isa.RMAX, Rd: 1, Ra: 2}), 10)
	minIssue, _ := sb.MinIssue(0, dec(t, isa.Inst{Op: isa.ADD, Rd: 1, Ra: 3, Rb: 4}))
	if minIssue <= 11 {
		t.Errorf("WAW: ADD min issue = %d, want > 11", minIssue)
	}
}

func TestHardwiredRegistersCreateNoHazards(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	sb.Record(0, dec(t, isa.Inst{Op: isa.RMAX, Rd: 0, Ra: 2}), 10) // writes s0: dropped
	minIssue, kind := sb.MinIssue(0, dec(t, isa.Inst{Op: isa.ADD, Rd: 3, Ra: 0, Rb: 0}))
	if minIssue != 0 || kind != HazardNone {
		t.Errorf("s0 dependence tracked: minIssue=%d kind=%v", minIssue, kind)
	}
	// Mask f0 is hardwired one: no dependence even with pending flag writes.
	sb.Record(0, dec(t, isa.Inst{Op: isa.PCLT, Rd: 1, Ra: 2, Rb: 3}), 10)
	minIssue, _ = sb.MinIssue(0, dec(t, isa.Inst{Op: isa.PADD, Rd: 4, Ra: 5, Rb: 6, Mask: 0}))
	if minIssue != 0 {
		t.Errorf("f0 mask created a dependence: %d", minIssue)
	}
}

func TestMultiplierLatencies(t *testing.T) {
	p := paperParams() // pipelined multiplier, latency 2
	sb := NewScoreboard(p, 1)
	sb.Record(0, dec(t, isa.Inst{Op: isa.MUL, Rd: 1, Ra: 2, Rb: 3}), 10)
	minIssue, _ := sb.MinIssue(0, dec(t, isa.Inst{Op: isa.ADD, Rd: 4, Ra: 1}))
	if minIssue != 12 { // ready t+1+2=13 -> issue 12
		t.Errorf("mul consumer min issue = %d, want 12", minIssue)
	}
	// Divider: sequential, width-cycle latency.
	sb.Record(0, dec(t, isa.Inst{Op: isa.DIV, Rd: 1, Ra: 2, Rb: 3}), 10)
	minIssue, _ = sb.MinIssue(0, dec(t, isa.Inst{Op: isa.ADD, Rd: 4, Ra: 1}))
	if want := int64(10 + p.DivLatency); minIssue != want {
		t.Errorf("div consumer min issue = %d, want %d", minIssue, want)
	}
}

func TestScoreboardRetireAndClear(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 2)
	sb.Record(1, dec(t, isa.Inst{Op: isa.RMAX, Rd: 1, Ra: 2}), 10)
	sb.ClearThread(1)
	if mi, _ := sb.MinIssue(1, dec(t, isa.Inst{Op: isa.ADD, Rd: 2, Ra: 1})); mi != 0 {
		t.Errorf("after clear: min issue = %d", mi)
	}
}

// TestScoreboardFilesAreDisjoint pins the one-table layout: each register
// file has its own span of a thread's row, a KindNone reference indexes
// none of them, and a clone is independent of its source.
func TestScoreboardFilesAreDisjoint(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 1)
	sb.Record(0, dec(t, isa.Inst{Op: isa.RMAX, Rd: 5, Ra: 2}), 10) // s5 pending
	for _, ref := range []isa.RegRef{{Kind: isa.KindNone, Idx: 5}, {Kind: isa.KindParallel, Idx: 5}, {Kind: isa.KindFlag, Idx: 5}} {
		d := &isa.Decoded{Class: isa.ClassScalar, NumReads: 1, Reads: [4]isa.RegRef{ref}}
		if mi, kind := sb.MinIssue(0, d); mi != 0 || kind != HazardNone {
			t.Errorf("read of %v waits on s5: minIssue=%d kind=%v", ref, mi, kind)
		}
	}
	clone := sb.Clone()
	sb.ClearThread(0)
	if mi, _ := clone.MinIssue(0, dec(t, isa.Inst{Op: isa.ADD, Rd: 3, Ra: 5})); mi == 0 {
		t.Error("clearing the source cleared the clone's s5")
	}
}

func TestThreadsAreIndependent(t *testing.T) {
	p := paperParams()
	sb := NewScoreboard(p, 2)
	sb.Record(0, dec(t, isa.Inst{Op: isa.RMAX, Rd: 1, Ra: 2}), 10)
	// Thread 1 reading its own s1 is unaffected by thread 0's pending write.
	minIssue, kind := sb.MinIssue(1, dec(t, isa.Inst{Op: isa.ADD, Rd: 3, Ra: 1}))
	if minIssue != 0 || kind != HazardNone {
		t.Errorf("cross-thread false dependence: minIssue=%d kind=%v", minIssue, kind)
	}
}

func TestTimelineShapes(t *testing.T) {
	p := paperParams()
	// Scalar instruction fetched at 0, issued at 2 (no stall).
	tl := p.Timeline(isa.Inst{Op: isa.SUB, Rd: 1, Ra: 2, Rb: 3}, 0, 2)
	wantNames := []string{"IF", "ID", "SR", "EX", "MA", "WB"}
	if len(tl) != len(wantNames) {
		t.Fatalf("scalar timeline %v", tl)
	}
	for i, s := range tl {
		if s.Name != wantNames[i] || s.Cycle != int64(i) {
			t.Errorf("stage %d = %v, want %s@%d", i, s, wantNames[i], i)
		}
	}
	// Reduction: SR, B1, B2, PR, R1..R4, WB.
	tl = p.Timeline(isa.Inst{Op: isa.RMAX, Rd: 1, Ra: 2}, 0, 2)
	names := make([]string, len(tl))
	for i, s := range tl {
		names[i] = s.Name
	}
	want := "IF ID SR B1 B2 PR R1 R2 R3 R4 WB"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("reduction timeline = %q, want %q", got, want)
	}
	// Stalls repeat ID, as in Figure 2.
	tl = p.Timeline(isa.Inst{Op: isa.SUB}, 0, 5)
	idCount := 0
	for _, s := range tl {
		if s.Name == "ID" {
			idCount++
		}
	}
	if idCount != 4 {
		t.Errorf("stalled timeline has %d ID stages, want 4", idCount)
	}
}

func TestTimelineParallelShape(t *testing.T) {
	p := paperParams()
	tl := p.Timeline(isa.Inst{Op: isa.PADD, Rd: 1, Ra: 2, Rb: 3}, 0, 2)
	names := make([]string, len(tl))
	for i, s := range tl {
		names[i] = s.Name
	}
	want := "IF ID SR B1 B2 PR EX MA WB"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("parallel timeline = %q, want %q", got, want)
	}
	// Completion matches the last stage.
	if c := p.CompletionTime(dec(t, isa.Inst{Op: isa.PADD}), 2); c != tl[len(tl)-1].Cycle {
		t.Errorf("completion %d != last stage cycle %d", c, tl[len(tl)-1].Cycle)
	}
}

func TestCompletionTimes(t *testing.T) {
	p := paperParams()
	cases := []struct {
		in   isa.Inst
		want int64
	}{
		{isa.Inst{Op: isa.ADD}, 3},
		{isa.Inst{Op: isa.PADD}, int64(p.B) + 4},
		{isa.Inst{Op: isa.RMAX}, int64(p.B+p.R) + 2},
	}
	for _, c := range cases {
		if got := p.CompletionTime(dec(t, c.in), 0); got != c.want {
			t.Errorf("completion(%v) = %d, want %d", c.in.Op, got, c.want)
		}
	}
}

func TestStageGraphMentionsAllPaths(t *testing.T) {
	g := paperParams().StageGraph()
	for _, frag := range []string{"scalar path", "parallel path", "reduction path", "B2", "R4"} {
		if !strings.Contains(g, frag) {
			t.Errorf("stage graph missing %q:\n%s", frag, g)
		}
	}
}

func TestClassifyDependence(t *testing.T) {
	cases := []struct {
		prod, cons isa.Class
		want       HazardKind
	}{
		{isa.ClassScalar, isa.ClassParallel, HazardBroadcast},
		{isa.ClassScalar, isa.ClassReduction, HazardBroadcast},
		{isa.ClassReduction, isa.ClassScalar, HazardReduction},
		{isa.ClassReduction, isa.ClassParallel, HazardBroadcastReduction},
		{isa.ClassReduction, isa.ClassReduction, HazardBroadcastReduction},
		{isa.ClassScalar, isa.ClassScalar, HazardData},
		{isa.ClassParallel, isa.ClassParallel, HazardData},
	}
	for _, c := range cases {
		if got := ClassifyDependence(c.prod, c.cons); got != c.want {
			t.Errorf("Classify(%d->%d) = %v, want %v", c.prod, c.cons, got, c.want)
		}
	}
}

func TestDefaultParamsDerivation(t *testing.T) {
	p := DefaultParams(1024, 2, 16)
	if p.B != 10 || p.R != 10 {
		t.Errorf("p=1024 k=2: b=%d r=%d, want 10, 10", p.B, p.R)
	}
	if p.DivLatency != 16 {
		t.Errorf("div latency = %d, want data width 16", p.DivLatency)
	}
}
