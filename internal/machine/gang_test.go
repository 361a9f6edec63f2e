package machine

import (
	"bytes"
	"testing"

	"repro/internal/isa"
)

// TestGangLanesIsolated pins the lane-major plane's isolation contract:
// work in one lane must never be visible in a neighbor, and a gang lane
// must be architecturally indistinguishable from a standalone machine.
// Four lanes run one program in lockstep through ExecLanes, each on its own
// data; lane 2 peels mid-run (leaves the live set, splitting it into two
// runs) and must stay byte-unchanged while the rest go on. Every lane, the
// peeled one continued on its own, must end exactly where a solo machine
// with its data does.
func TestGangLanesIsolated(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.LW, Rd: 1, Ra: 0, Imm: 0},
		isa.Inst{Op: isa.PLW, Rd: 1, Ra: 0, Imm: 0}.Canonical(),
		isa.Inst{Op: isa.PADD, Rd: 2, Ra: 1, Rb: 1, SB: true}.Canonical(),
		isa.Inst{Op: isa.PCGT, Rd: 1, Ra: 2, Rb: 1, SB: true}.Canonical(),
		isa.Inst{Op: isa.RSUM, Rd: 2, Ra: 2}.Canonical(),
		isa.Inst{Op: isa.RCOUNT, Rd: 3, Ra: 1}.Canonical(),
		isa.Inst{Op: isa.FNOT, Rd: 2, Ra: 1}.Canonical(),
		isa.Inst{Op: isa.PSW, Rd: 2, Ra: 0, Imm: 2}.Canonical(),
		{Op: isa.SW, Rd: 2, Ra: 0, Imm: 4},
		{Op: isa.ADD, Rd: 4, Ra: 2, Rb: 3},
		{Op: isa.SW, Rd: 4, Ra: 0, Imm: 5},
		{Op: isa.HALT},
	}
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PEs: 4, Threads: 2, Width: 16, LocalMemWords: 16}
	const n, peeled, peelAt = 4, 2, 5
	lanes, err := NewGangLanes(cfg, dp, n)
	if err != nil {
		t.Fatal(err)
	}
	load := func(m *Machine, j int) {
		rows := make([][]int64, cfg.PEs)
		for pe := range rows {
			rows[pe] = []int64{int64(10*j + 3*pe)}
		}
		if err := m.LoadLocalMem(rows); err != nil {
			t.Fatal(err)
		}
		if err := m.LoadScalarMem([]int64{int64(j + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	runSolo := func(m *Machine) {
		for !m.Halted() {
			if _, err := m.ExecDecoded(0, dp.At(m.PC(0))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j, m := range lanes {
		load(m, j)
	}

	live := []int{0, 1, 2, 3}
	outs, traps := make([]Outcome, n), make([]error, n)
	var atPeel []byte
	for step := 0; !lanes[live[0]].Halted(); step++ {
		if step == peelAt {
			atPeel = lanes[peeled].Snapshot()
			live = []int{0, 1, 3}
		}
		if !ExecLanes(lanes, live, 0, dp.At(lanes[live[0]].PC(0)), outs, traps) {
			t.Fatalf("step %d: lanes left lockstep: %v", step, traps)
		}
	}
	if atPeel == nil {
		t.Fatal("the run ended before the peel")
	}
	if !bytes.Equal(lanes[peeled].Snapshot(), atPeel) {
		t.Fatal("peeled lane changed while the others ran on")
	}
	runSolo(lanes[peeled])

	for j, m := range lanes {
		solo, err := NewDecoded(cfg, dp)
		if err != nil {
			t.Fatal(err)
		}
		load(solo, j)
		runSolo(solo)
		if !bytes.Equal(m.Snapshot(), solo.Snapshot()) {
			t.Errorf("lane %d snapshot differs from a standalone machine's", j)
		}
	}
}

func TestGangLanesRejectsBadCount(t *testing.T) {
	dp, err := isa.DecodeProgram([]isa.Inst{{Op: isa.HALT}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGangLanes(Config{PEs: 4, Threads: 1, Width: 8}, dp, 0); err == nil {
		t.Error("NewGangLanes(0) succeeded, want error")
	}
}
