package core

import (
	"strings"
	"testing"
)

// TestTrapSurfacesFromRun: architectural traps abort the timed simulation
// with the trap error, not a hang or a panic.
func TestTrapSurfacesFromRun(t *testing.T) {
	p := build(t, paperCfg(1), `
		lw s2, 9999(s0)  ; out of scalar memory
		halt
	`)
	_, err := p.Run(100000)
	if err == nil {
		t.Fatal("trap did not surface")
	}
	if !strings.Contains(err.Error(), "scalar load address") {
		t.Errorf("error = %v", err)
	}
}

// TestRunOffProgramEnd: a thread whose fetch runs past the program end (no
// halt, no redirect) starves and the deadlock detector reports it instead
// of the simulator spinning forever.
func TestRunOffProgramEnd(t *testing.T) {
	p := build(t, paperCfg(1), `
		nop
		nop
	`)
	if _, err := p.Run(200000); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected a deadlock error for a program with no halt, got %v", err)
	}
}
