package machine

import (
	"bytes"
	"testing"

	"repro/internal/isa"
)

// TestDecodedDifferentialThreads drives the thread-management ops (TID,
// TSPAWN, TEXIT, TSEND, TRECV, TJOIN) through fixed scripts on both the
// decoded and reference paths, comparing outcomes and snapshots. Random
// programs rarely line up a legal send/recv pair, so this leg is scripted;
// the randomized tiers live in internal/core/oracle_test.go.
func TestDecodedDifferentialThreads(t *testing.T) {
	script := []struct {
		th int
		in isa.Inst
	}{
		{0, isa.Inst{Op: isa.TID, Rd: 1}},
		{0, isa.Inst{Op: isa.ADDI, Rd: 2, Ra: 0, Imm: 1}},  // s2 = 1 (peer thread id)
		{0, isa.Inst{Op: isa.TSPAWN, Rd: 3, Imm: 5}},       // spawn thread at PC 5
		{0, isa.Inst{Op: isa.ADDI, Rd: 4, Ra: 0, Imm: 42}}, // payload
		{0, isa.Inst{Op: isa.TSEND, Ra: 2, Rb: 4}},         // send 42 to thread 1
		{1, isa.Inst{Op: isa.TRECV, Rd: 5}},                // thread 1 receives 42
		{1, isa.Inst{Op: isa.TEXIT}},                       // thread 1 exits
		{0, isa.Inst{Op: isa.TJOIN, Ra: 2}},                // join the exited thread
		{0, isa.Inst{Op: isa.HALT}},
	}
	prog := make([]isa.Inst, 8)
	for i := range prog {
		prog[i] = isa.Inst{Op: isa.NOP}
	}
	cfg := Config{PEs: 8, Threads: 4, Width: 16, LocalMemWords: 16}
	dm, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range script {
		do, derr := dm.ExecDecoded(step.th, dec(step.in))
		ro, rerr := ref.ExecRef(step.th, step.in)
		if do != ro {
			t.Fatalf("step %d (%v): outcome %+v != ref %+v", i, step.in, do, ro)
		}
		if (derr == nil) != (rerr == nil) || (derr != nil && derr.Error() != rerr.Error()) {
			t.Fatalf("step %d (%v): error %v != ref %v", i, step.in, derr, rerr)
		}
	}
	if !bytes.Equal(dm.Snapshot(), ref.Snapshot()) {
		t.Fatal("architectural snapshots diverged after thread script")
	}
}
