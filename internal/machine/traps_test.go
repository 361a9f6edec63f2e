package machine

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
)

// execOne builds a fresh machine, applies setup, executes one instruction,
// and returns the error.
func execOne(t *testing.T, setup func(m *Machine), in isa.Inst) error {
	t.Helper()
	m, err := New(Config{PEs: 2, Threads: 2, Width: 16, LocalMemWords: 8, ScalarMemWords: 16}, make([]isa.Inst, 8))
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(m)
	}
	_, err = m.ExecDecoded(0, dec(in))
	return err
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name  string
		setup func(m *Machine)
		inst  isa.Inst
		frag  string
	}{
		{"scalar load oob high", func(m *Machine) { m.SetScalar(0, 1, 100) },
			isa.Inst{Op: isa.LW, Rd: 2, Ra: 1}, "scalar load address"},
		{"scalar load oob negative", nil,
			isa.Inst{Op: isa.LW, Rd: 2, Ra: 0, Imm: -1}, "scalar load address"},
		{"scalar store oob", func(m *Machine) { m.SetScalar(0, 1, 99) },
			isa.Inst{Op: isa.SW, Rd: 2, Ra: 1}, "scalar store address"},
		{"parallel load oob", func(m *Machine) {
			for pe := 0; pe < 2; pe++ {
				m.SetParallel(0, pe, 1, 50)
			}
		}, isa.Inst{Op: isa.PLW, Rd: 2, Ra: 1}, "local load address"},
		{"parallel store oob", func(m *Machine) {
			for pe := 0; pe < 2; pe++ {
				m.SetParallel(0, pe, 1, 50)
			}
		}, isa.Inst{Op: isa.PSW, Rd: 2, Ra: 1}, "local store address"},
		{"spawn target oob", nil,
			isa.Inst{Op: isa.TSPAWN, Rd: 1, Imm: 999}, "spawn target"},
		{"join invalid tid", func(m *Machine) { m.SetScalar(0, 1, 50) },
			isa.Inst{Op: isa.TJOIN, Ra: 1}, "join on invalid thread"},
		{"send invalid tid", func(m *Machine) { m.SetScalar(0, 1, 50) },
			isa.Inst{Op: isa.TSEND, Ra: 1, Rb: 2}, "send to invalid thread"},
		{"jump oob", nil,
			isa.Inst{Op: isa.J, Imm: 200}, "out of program bounds"},
		{"jr oob", func(m *Machine) { m.SetScalar(0, 1, 200) },
			isa.Inst{Op: isa.JR, Ra: 1}, "out of program bounds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := execOne(t, c.setup, c.inst)
			if err == nil {
				t.Fatalf("no trap for %v", c.inst)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("trap = %v, want containing %q", err, c.frag)
			}
			var trap *TrapError
			if !asTrap(err, &trap) {
				t.Errorf("error is not a *TrapError: %T", err)
			} else if trap.Thread != 0 {
				t.Errorf("trap thread = %d", trap.Thread)
			}
		})
	}
}

func asTrap(err error, out **TrapError) bool {
	t, ok := err.(*TrapError)
	if ok {
		*out = t
	}
	return ok
}

// TestMaskedLanesDoNotTrap: PEs outside the responder set must not raise
// memory traps even when their address registers are garbage (the hardware
// gates their accesses off).
func TestMaskedLanesDoNotTrap(t *testing.T) {
	m, err := New(Config{PEs: 4, Threads: 1, Width: 16, LocalMemWords: 8}, make([]isa.Inst, 8))
	if err != nil {
		t.Fatal(err)
	}
	// PE 0 has a valid address, the rest garbage; only PE 0 responds.
	for pe := 0; pe < 4; pe++ {
		addr := int64(5000)
		if pe == 0 {
			addr = 2
		}
		m.SetParallel(0, pe, 1, addr)
		m.SetFlag(0, pe, 1, pe == 0)
	}
	if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.PLW, Rd: 2, Ra: 1, Mask: 1})); err != nil {
		t.Fatalf("masked lanes trapped: %v", err)
	}
	m.SetPC(0, 0)
	if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.PSW, Rd: 2, Ra: 1, Mask: 1})); err != nil {
		t.Fatalf("masked store trapped: %v", err)
	}
}

func TestSendToExitedThreadMailboxStillWorks(t *testing.T) {
	// Sending to a freed context is allowed (the mailbox hardware exists
	// regardless); the value waits for the next spawn... which clears it.
	m, _ := New(Config{PEs: 1, Threads: 2, Width: 16}, make([]isa.Inst, 8))
	m.SetScalar(0, 1, 1) // target thread 1 (free)
	m.SetScalar(0, 2, 42)
	if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.TSEND, Ra: 1, Rb: 2})); err != nil {
		t.Fatalf("send to free context: %v", err)
	}
	if m.MailboxLen(1) != 1 {
		t.Error("value not queued")
	}
	// Spawning into the context clears stale mailbox contents.
	if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.TSPAWN, Rd: 3, Imm: 0})); err != nil {
		t.Fatal(err)
	}
	if m.MailboxLen(1) != 0 {
		t.Error("spawn did not clear the stale mailbox")
	}
}

func TestLoadImagesRejectOversize(t *testing.T) {
	m, _ := New(Config{PEs: 2, Threads: 1, Width: 16, LocalMemWords: 4, ScalarMemWords: 4}, nil)
	if err := m.LoadLocalMem([][]int64{{1, 2, 3, 4, 5}}); err == nil {
		t.Error("oversized local image accepted")
	}
	if err := m.LoadScalarMem([]int64{1, 2, 3, 4, 5}); err == nil {
		t.Error("oversized scalar image accepted")
	}
	// Extra PE rows beyond the array are ignored.
	if err := m.LoadLocalMem([][]int64{{1}, {2}, {3}}); err != nil {
		t.Errorf("extra rows should be ignored: %v", err)
	}
}

// TestEngineTrapDeterminism pins the deterministic trap rule: when several
// PEs fault on a parallel memory access, the trap reports the lowest
// faulting PE and every non-faulting responder still executes — exactly
// what the reference interpreter does.
func TestEngineTrapDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cfg := Config{PEs: 67, Threads: 1, Width: 16, LocalMemWords: 32}
	// p1 := pe index; f1 := pe >= 50; the store to p1-55 faults for
	// responders 50..54 (negative addresses), and responders 55..66, which
	// come after the first fault, still store.
	prog := []isa.Inst{
		{Op: isa.PIDX, Rd: 1},
		{Op: isa.PCGE, Rd: 1, Ra: 1, Rb: 2, SB: true},
		{Op: isa.PSW, Rd: 1, Ra: 1, Imm: -55, Mask: 1},
	}
	mem := make([][]int64, cfg.PEs)
	for pe := range mem {
		mem[pe] = make([]int64, cfg.LocalMemWords)
		for w := range mem[pe] {
			mem[pe][w] = r.Int63()
		}
	}
	var snaps [2][]byte
	for i, ref := range []bool{false, true} {
		m, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadLocalMem(mem); err != nil {
			t.Fatal(err)
		}
		m.SetScalar(0, 2, 50)
		for j, in := range prog {
			if ref {
				_, err = m.ExecRef(0, in)
			} else {
				_, err = m.ExecDecoded(0, dec(in))
			}
			if j < len(prog)-1 && err != nil {
				t.Fatal(err)
			}
		}
		te, ok := err.(*TrapError)
		if !ok {
			t.Fatalf("ref=%t: expected trap, got %v", ref, err)
		}
		if want := "PE 50 local store address -5 out of [0, 32)"; te.Msg != want {
			t.Fatalf("ref=%t: trap message %q, want %q", ref, te.Msg, want)
		}
		for pe := 55; pe < cfg.PEs; pe++ {
			if got := m.LocalMem(pe, pe-55); got != int64(pe) {
				t.Fatalf("ref=%t: PE %d stored %d, want %d", ref, pe, got, pe)
			}
		}
		snaps[i] = m.Snapshot()
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("post-trap snapshot differs from the reference interpreter's")
	}
}
