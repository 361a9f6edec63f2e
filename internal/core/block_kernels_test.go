package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/progs"
)

// runKernel assembles and runs one associative kernel instance with the
// block plane on or off, checks the kernel's own result invariant, and
// returns the run statistics and terminal architectural snapshot.
func runKernel(t *testing.T, ins progs.Instance, pes int, off bool) (core.Stats, []byte) {
	t.Helper()
	prog, err := asm.Assemble(ins.Source)
	if err != nil {
		t.Fatal(err)
	}
	threads := ins.Threads
	if threads < 1 {
		threads = 1
	}
	cfg := core.Config{}
	cfg.Machine = ins.MachineConfig(pes, threads)
	if off {
		cfg.Blocks = core.BlocksOff
	}
	p, err := core.New(cfg, prog.Insts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Machine().LoadLocalMem(ins.LocalMem); err != nil {
		t.Fatal(err)
	}
	if err := p.Machine().LoadScalarMem(ins.ScalarMem); err != nil {
		t.Fatal(err)
	}
	s, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Check(p.Machine()); err != nil {
		t.Fatal(err)
	}
	return s, p.Snapshot()
}

// TestBlockKernelsOnOffIdentical pins the block plane against the full
// associative kernel library: blocks-on must be cycle-for-cycle identical
// to blocks-off — same cycles, instructions, idle slots, fetches, and
// flushes, and a bit-identical snapshot — and the single-threaded kernels
// must actually take the block path (a silently disengaged fast path would
// pass the identity check for free).
func TestBlockKernelsOnOffIdentical(t *testing.T) {
	for _, ins := range []progs.Instance{
		progs.MaxSearch(16, 1),
		progs.ResponderSum(16, 2),
		progs.CountAndSum(16, 3),
		progs.MST(16, 4),
		progs.StringSearch(16, 4, 5),
		progs.ImageSum(16, 16, 6),
		progs.MTReduction(16, 4, 8),
	} {
		on, snapOn := runKernel(t, ins, 16, false)
		off, snapOff := runKernel(t, ins, 16, true)
		if on.Cycles != off.Cycles || on.Instructions != off.Instructions ||
			on.IdleCycles != off.IdleCycles || on.Fetches != off.Fetches || on.Flushes != off.Flushes {
			t.Fatalf("%s: stats mismatch\n on: cycles=%d inst=%d idle=%d fetches=%d\noff: cycles=%d inst=%d idle=%d fetches=%d",
				ins.Name, on.Cycles, on.Instructions, on.IdleCycles, on.Fetches,
				off.Cycles, off.Instructions, off.IdleCycles, off.Fetches)
		}
		if !bytes.Equal(snapOn, snapOff) {
			t.Fatalf("%s: snapshots differ between blocks on and off", ins.Name)
		}
		if ins.Threads <= 1 && on.BlockDispatches == 0 {
			t.Fatalf("%s: block plane never engaged (fallbacks %v)", ins.Name, on.BlockFallbacks)
		}
		if off.BlockDispatches != 0 {
			t.Fatalf("%s: blocks-off run counted %d dispatches", ins.Name, off.BlockDispatches)
		}
	}
}

// TestGangLongRunStatsMatchSolo runs a block-dispatched kernel long enough
// to cross the run loop's poll boundaries and checks that a lockstep gang
// lane's statistics — block dispatch counts included — are identical to
// the solo run's: both front ends are the same engine and stop a block at
// the same boundaries.
func TestGangLongRunStatsMatchSolo(t *testing.T) {
	ins := progs.MTReduction(16, 1, 1024)
	prog, err := asm.Assemble(ins.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Machine: ins.MachineConfig(16, 1)}
	p, err := core.New(cfg, prog.Insts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGangDecoded(cfg, p.Machine().Decoded(), 2)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Cycles < 2*4096 || solo.BlockDispatches == 0 {
		t.Fatalf("%d cycles, %d block dispatches: too short to cross a poll boundary in a block", solo.Cycles, solo.BlockDispatches)
	}
	for i, lr := range g.Run(0) {
		if lr.Err != nil || lr.Peeled {
			t.Fatalf("lane %d left the gang: %+v", i, lr)
		}
		if !reflect.DeepEqual(lr.Stats, solo) {
			t.Errorf("lane %d stats %+v, solo %+v", i, lr.Stats, solo)
		}
	}
}
