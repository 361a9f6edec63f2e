package machine

import (
	"bytes"
	"testing"
)

// dirtySrc mutates every class of architectural state: scalar registers,
// parallel registers, flags, local memory, scalar memory, a spawned thread
// with mailbox traffic, and the halt flag.
const dirtySrc = `
	pidx p1
	padd p2, p1, p1
	pslli p3, p1, 1
	pclt f1, p1, p2
	pandi p5, p1, 31
	psw p2, 0(p5)
	tspawn s1, worker
	tsend s1, s1
	tjoin s1
	rsum s2, p2
	sw s2, 1(s0)
	li s3, 77
	sw s3, 2(s0)
	halt
worker:
	trecv s4
	pli p4, 9
	fset f2
	texit
`

// TestResetMatchesFreshSnapshot pins the pool's core contract: after an
// arbitrary run, Reset restores power-on state exactly, so a reset machine
// is snapshot-identical to a freshly constructed one.
func TestResetMatchesFreshSnapshot(t *testing.T) {
	cfg := Config{PEs: 64, Threads: 4, Width: 16, LocalMemWords: 32}
	m := newMachine(t, cfg, dirtySrc)
	fresh := m.Snapshot()
	run(t, m)
	if bytes.Equal(m.Snapshot(), fresh) {
		t.Fatal("program left no architectural trace; test is vacuous")
	}
	m.Reset()
	if !bytes.Equal(m.Snapshot(), fresh) {
		t.Error("reset snapshot differs from fresh snapshot")
	}
	// A reset machine must also run to the same final state again.
	run(t, m)
	rerun := m.Snapshot()
	m2 := newMachine(t, cfg, dirtySrc)
	run(t, m2)
	if !bytes.Equal(rerun, m2.Snapshot()) {
		t.Error("rerun after reset diverges from a fresh run")
	}
}

// TestResetAfterTrap proves a machine is recyclable even when its last run
// ended in an architectural trap mid-instruction-stream.
func TestResetAfterTrap(t *testing.T) {
	cfg := Config{PEs: 4, Threads: 2}
	m := newMachine(t, cfg, `
		li s1, 60
		sw s1, 4090(s1)   ; traps: address 4150 out of range
		halt
	`)
	if _, err := m.ExecDecoded(0, dec(m.Program()[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecDecoded(0, dec(m.Program()[1])); err == nil {
		t.Fatal("expected a trap")
	}
	m.Reset()
	fresh := newMachine(t, cfg, `
		li s1, 60
		sw s1, 4090(s1)   ; traps: address 4150 out of range
		halt
	`)
	if !bytes.Equal(m.Snapshot(), fresh.Snapshot()) {
		t.Error("reset after trap differs from fresh machine")
	}
}

// TestSetProgramReuse retargets one machine at a second program and checks
// it computes the same result as a machine built for that program.
func TestSetProgramReuse(t *testing.T) {
	cfg := Config{PEs: 8, Threads: 2, Width: 16}
	m := newMachine(t, cfg, dirtySrc)
	run(t, m)

	src2 := `
		pidx p1
		rmax s1, p1
		sw s1, 0(s0)
		halt
	`
	fresh := newMachine(t, cfg, src2)
	run(t, fresh)

	m.SetProgram(fresh.Program())
	m.Reset()
	run(t, m)
	if got, want := m.ScalarMem(0), fresh.ScalarMem(0); got != want {
		t.Errorf("reused machine mem[0] = %d, want %d", got, want)
	}
	if !bytes.Equal(m.Snapshot(), fresh.Snapshot()) {
		t.Error("reused machine final snapshot differs from fresh machine")
	}
}
