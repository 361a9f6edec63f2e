package asc

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

func TestProcessorResetMatchesFresh(t *testing.T) {
	src := `
		pidx p1
		padd p2, p1, p1
		rsum s1, p2
		sw s1, 0(s0)
		halt
	`
	cfg := Config{PEs: 8, Width: 32}
	p, err := New(cfg, MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	fresh := p.Snapshot()
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Snapshot(), fresh) {
		t.Error("reset processor snapshot differs from fresh snapshot")
	}
	// The reset processor must produce the same result and cycle count as
	// the first run — pipeline and statistics state reset too.
	s1, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := New(cfg, MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := q.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cycles != s2.Cycles || s1.Instructions != s2.Instructions {
		t.Errorf("rerun after reset: got %d cycles / %d insts, fresh run %d / %d",
			s1.Cycles, s1.Instructions, s2.Cycles, s2.Instructions)
	}
	if got, want := p.ScalarMem(0), q.ScalarMem(0); got != want {
		t.Errorf("rerun result %d, want %d", got, want)
	}
}

func TestProcessorSetProgramReloadsDataSegment(t *testing.T) {
	p, err := New(Config{PEs: 4, Width: 16}, MustAssemble(`
		lw s1, 0(s0)
		sw s1, 1(s0)
		halt
	.data
		.word 11
	`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := p.ScalarMem(1); got != 11 {
		t.Fatalf("first program result = %d, want 11", got)
	}
	if err := p.SetProgram(MustAssemble(`
		lw s1, 0(s0)
		addi s2, s1, 5
		sw s2, 2(s0)
		halt
	.data
		.word 30
	`)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := p.ScalarMem(2); got != 35 {
		t.Errorf("swapped program result = %d, want 35", got)
	}
	if got := p.ScalarMem(0); got != 30 {
		t.Errorf("data segment word = %d, want 30 (must be reloaded on SetProgram)", got)
	}
}

func TestConfigKey(t *testing.T) {
	if (Config{}).Key() != (Config{PEs: 16, Threads: 16, Width: 8, LocalMemWords: 1024, Arity: 4}).Key() {
		t.Error("zero config and explicit paper config should share a key")
	}
	if (Config{}).Key() == (Config{PEs: 32}).Key() {
		t.Error("different PE counts must produce different keys")
	}
	if (Config{}).Key() == (Config{SMT: true}).Key() {
		t.Error("SMT must be part of the key")
	}
}

// TestConfigKeyIgnoresEngine: Engine selects nothing, so a configuration
// that names EngineSerial shares its pool key with the default one.
func TestConfigKeyIgnoresEngine(t *testing.T) {
	if (Config{Engine: EngineAuto}).Key() != (Config{Engine: EngineSerial}).Key() {
		t.Error("EngineAuto and EngineSerial configs must share one key")
	}
}

// TestConfigRejectsUnknownEngine: EngineAuto and EngineSerial are the only
// valid Engine values; New and Geometry refuse any other.
func TestConfigRejectsUnknownEngine(t *testing.T) {
	bad := Config{Engine: Engine(2)}
	if _, err := bad.Geometry(); err == nil {
		t.Error("Geometry accepted Engine(2)")
	}
	if _, err := New(bad, MustAssemble("halt")); err == nil {
		t.Error("New accepted Engine(2)")
	}
	for _, e := range []Engine{EngineAuto, EngineSerial} {
		if _, err := New(Config{Engine: e}, MustAssemble("halt")); err != nil {
			t.Errorf("New(Engine %d): %v", e, err)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	p, err := New(Config{PEs: 4}, MustAssemble(`
	spin:
		j spin
	`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = p.RunContext(ctx, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext error = %v, want DeadlineExceeded", err)
	}
	// A canceled processor is recyclable.
	if err := p.SetProgram(MustAssemble(`
		li s1, 9
		sw s1, 0(s0)
		halt
	`)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := p.ScalarMem(0); got != 9 {
		t.Errorf("result after recycle = %d, want 9", got)
	}
}

func TestRunCycleLimitError(t *testing.T) {
	p, err := New(Config{PEs: 4}, MustAssemble(`
	spin:
		j spin
	`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(100); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("Run error = %v, want ErrCycleLimit", err)
	}
}
