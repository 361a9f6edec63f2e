package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
)

var snapProg = asm.MustAssemble(`
	tspawn s1, worker
	pidx p1
	rmax s2, p1
	tsend s1, s2
	halt
worker:
	trecv s3
	texit
`)

func snapMachine(t testing.TB) *Machine {
	return snapMachineCfg(t, Config{PEs: 4, Threads: 4, Width: 16, LocalMemWords: 8})
}

func snapMachineCfg(t testing.TB, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg, snapProg.Insts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := snapMachine(t)
	// Execute a few instructions to build interesting state.
	for i := 0; i < 4; i++ {
		if _, err := m.ExecDecoded(0, dec(m.Program()[m.PC(0)])); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()

	// Restore into a fresh machine and compare observable state.
	m2 := snapMachine(t)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 4; tid++ {
		if m2.ThreadActive(tid) != m.ThreadActive(tid) {
			t.Errorf("thread %d active mismatch", tid)
		}
		if m2.PC(tid) != m.PC(tid) {
			t.Errorf("thread %d pc mismatch", tid)
		}
		for r := uint8(1); r < 16; r++ {
			if m2.Scalar(tid, r) != m.Scalar(tid, r) {
				t.Errorf("thread %d s%d mismatch", tid, r)
			}
		}
		if m2.MailboxLen(tid) != m.MailboxLen(tid) {
			t.Errorf("thread %d mailbox mismatch", tid)
		}
	}
	for pe := 0; pe < 4; pe++ {
		for r := uint8(1); r < 16; r++ {
			if m2.Parallel(0, pe, r) != m.Parallel(0, pe, r) {
				t.Errorf("PE %d p%d mismatch", pe, r)
			}
		}
	}
}

// TestSnapshotResumeDeterminism: run half a program, snapshot, finish on
// both the original and the restored machine; final states must agree.
func TestSnapshotResumeDeterminism(t *testing.T) {
	run := func(m *Machine, steps int) {
		for i := 0; i < steps && !m.Halted(); i++ {
			tid := -1
			for c := 0; c < m.Config().Threads; c++ {
				if m.ThreadActive(c) && !m.BlockedDecoded(c, dec(m.Program()[m.PC(c)])) {
					tid = c
					break
				}
			}
			if tid < 0 {
				t.Fatal("deadlock")
			}
			if _, err := m.ExecDecoded(tid, dec(m.Program()[m.PC(tid)])); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := snapMachine(t)
	run(a, 3)
	snap := a.Snapshot()
	b := snapMachine(t)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	run(a, 100)
	run(b, 100)
	if !a.Halted() || !b.Halted() {
		t.Fatal("programs did not halt")
	}
	for tid := 0; tid < 4; tid++ {
		for r := uint8(1); r < 16; r++ {
			if a.Scalar(tid, r) != b.Scalar(tid, r) {
				t.Errorf("divergence: thread %d s%d: %d vs %d", tid, r, a.Scalar(tid, r), b.Scalar(tid, r))
			}
		}
	}
}

func TestSnapshotRejectsMismatchedMachine(t *testing.T) {
	m := snapMachine(t)
	snap := m.Snapshot()

	// Different PE count.
	other, _ := New(Config{PEs: 8, Threads: 4, Width: 16, LocalMemWords: 8}, m.Program())
	if err := other.Restore(snap); err == nil {
		t.Error("snapshot accepted by a machine with a different PE count")
	}
	// Different program.
	prog2 := asm.MustAssemble("nop\nhalt")
	other2, _ := New(Config{PEs: 4, Threads: 4, Width: 16, LocalMemWords: 8}, prog2.Insts)
	if err := other2.Restore(snap); err == nil {
		t.Error("snapshot accepted by a machine with a different program")
	}
}

// randomizeState fills m's registers, flags, memories, and one mailbox
// with seeded values, so a machine differs from its reset state everywhere.
func randomizeState(m *Machine, r *rand.Rand) {
	for tid := 0; tid < m.cfg.Threads; tid++ {
		for reg := uint8(1); reg < isa.NumScalarRegs; reg++ {
			m.SetScalar(tid, reg, r.Int63n(1<<16))
		}
		for pe := 0; pe < m.cfg.PEs; pe++ {
			for reg := uint8(1); reg < isa.NumParallelRegs; reg++ {
				m.SetParallel(tid, pe, reg, r.Int63n(1<<16))
			}
			for fl := uint8(1); fl < isa.NumFlagRegs; fl++ {
				m.SetFlag(tid, pe, fl, r.Intn(2) == 0)
			}
		}
	}
	for i := range m.localMem {
		m.localMem[i] = r.Int63n(1 << 16)
	}
	for i := range m.scalarMem {
		m.scalarMem[i] = r.Int63n(1 << 16)
	}
	m.threads[1].state = ThreadActive
	m.threads[1].pc = r.Intn(len(m.prog))
	m.threads[1].mailbox = append(m.threads[1].mailbox[:0], r.Int63n(1<<16))
}

// corruptSnapshots derives broken images from m's valid image, each with
// the error Restore must report for it.
func corruptSnapshots(m *Machine) []struct {
	name string
	img  []byte
	want string
} {
	snap := m.Snapshot()
	putWord := func(i int, v int64) []byte {
		b := bytes.Clone(snap)
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		return b
	}
	// Thread 0's mailbox length follows its state, pc, and scalar
	// registers; thread 0's first PE row starts the planes.
	mbox := snapHeaderWords + 2 + isa.NumScalarRegs
	planes := len(snap)/8 - m.cfg.Threads*m.cfg.PEs*snapRowWords - len(m.localMem) - len(m.scalarMem)
	return []struct {
		name string
		img  []byte
		want string
	}{
		{"empty", nil, "machine: truncated snapshot"},
		{"truncated header", snap[:20], "machine: truncated snapshot"},
		{"truncated thread record", snap[:8*(mbox-3)], "machine: truncated snapshot"},
		{"truncated image", snap[:len(snap)-5], "machine: truncated snapshot"},
		{"trailing bytes", append(bytes.Clone(snap), 0, 0, 0, 0, 0, 0, 0, 0, 9), "machine: snapshot has 9 trailing bytes"},
		{"wrong magic", putWord(0, 0x12345678), "machine: snapshot magic mismatch: 305419896 != 1297367379"},
		{"wrong version", putWord(1, 2), "machine: snapshot version mismatch: 2 != 1"},
		{"wrong fingerprint", putWord(2, 42), "machine: snapshot machine fingerprint mismatch: 42 != "},
		{"mailbox length negative", putWord(mbox, -1), "machine: snapshot mailbox length -1 out of range"},
		{"mailbox length over cap", putWord(mbox, 1<<40), "machine: snapshot mailbox length 1099511627776 out of range"},
		{"mailbox length over image", putWord(mbox, int64(m.cfg.MailboxCap))[:8*(mbox+2)], "machine: truncated snapshot"},
		{"halt flag not a bit", putWord(3, 2), "machine: snapshot halt flag 2 is not 0 or 1"},
		{"thread state invalid", putWord(snapHeaderWords, 256), "machine: snapshot thread 0 state 256 invalid"},
		{"pc out of bounds", putWord(snapHeaderWords+1, 99), "machine: snapshot thread 0 pc 99 out of program bounds [0, 7]"},
		{"flag not a bit", putWord(planes+snapRowWords+isa.NumParallelRegs+1, 3), "machine: snapshot thread 0 PE 1 has a flag word that is not 0 or 1"},
	}
}

// TestSnapshotRejectsCorruption: a rejected image reports its first defect
// and leaves the machine's state exactly as it was.
func TestSnapshotRejectsCorruption(t *testing.T) {
	src := snapMachine(t)
	randomizeState(src, rand.New(rand.NewSource(1)))
	for _, tc := range corruptSnapshots(src) {
		t.Run(tc.name, func(t *testing.T) {
			m := snapMachine(t)
			randomizeState(m, rand.New(rand.NewSource(2)))
			before := m.Snapshot()
			err := m.Restore(tc.img)
			if err == nil {
				t.Fatal("corrupt image accepted")
			}
			if !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("error %q, want %q", err, tc.want)
			}
			if !bytes.Equal(m.Snapshot(), before) {
				t.Error("rejected image changed the machine's state")
			}
		})
	}
}

// Property: snapshot/restore is the identity on random machine states.
func TestSnapshotIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := snapMachine(t)
		randomizeState(m, rand.New(rand.NewSource(seed)))
		snap := m.Snapshot()
		m2 := snapMachine(t)
		if err := m2.Restore(snap); err != nil {
			t.Log(err)
			return false
		}
		// Snapshot of the restored machine must be byte-identical.
		return bytes.Equal(m2.Snapshot(), snap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRestore: Restore never panics on arbitrary bytes, a rejected image
// leaves the machine untouched, and an accepted one re-encodes to exactly
// the bytes restored.
func FuzzRestore(f *testing.F) {
	// A small machine keeps images short enough for the fuzzer to explore.
	cfg := Config{PEs: 2, Threads: 2, Width: 16, LocalMemWords: 2, ScalarMemWords: 4, MailboxCap: 2}
	src := snapMachineCfg(f, cfg)
	f.Add(src.Snapshot())
	randomizeState(src, rand.New(rand.NewSource(3)))
	f.Add(src.Snapshot())
	for _, tc := range corruptSnapshots(src) {
		f.Add(tc.img)
	}
	// One machine across inputs, so a rejection is checked against
	// whatever state the last accepted image left.
	m := snapMachineCfg(f, cfg)
	f.Fuzz(func(t *testing.T, data []byte) {
		before := m.Snapshot()
		if err := m.Restore(data); err != nil {
			if !bytes.Equal(m.Snapshot(), before) {
				t.Fatalf("rejected image (%v) changed the machine's state", err)
			}
			return
		}
		if !bytes.Equal(m.Snapshot(), data) {
			t.Fatal("accepted image does not re-encode to the same bytes")
		}
	})
}

// goldenMachine builds a fixed machine state that exercises every section
// of the snapshot image: two live threads and a free one, a non-empty
// mailbox, mixed flags, patterned registers and memories, and the halt bit.
func goldenMachine(t testing.TB, pes int) *Machine {
	m := snapMachineCfg(t, Config{PEs: pes, Threads: 3, Width: 16, LocalMemWords: 24, ScalarMemWords: 40})
	m.threads[1].state = ThreadActive
	m.threads[1].pc = 5
	m.threads[2].pc = 6
	m.threads[1].mailbox = append(m.threads[1].mailbox, 7, 0xbeef)
	for tid := 0; tid < 3; tid++ {
		for r := uint8(1); r < 16; r++ {
			m.SetScalar(tid, r, int64(tid*1000+int(r)*37))
		}
		for pe := 0; pe < pes; pe++ {
			for r := uint8(1); r < 16; r++ {
				m.SetParallel(tid, pe, r, int64((tid*131+pe*17+int(r)*7)^0x5a5a))
			}
			for f := uint8(1); f < 8; f++ {
				m.SetFlag(tid, pe, f, (tid+pe*3+int(f))%3 == 0)
			}
		}
	}
	rows := make([][]int64, pes)
	for pe := range rows {
		rows[pe] = make([]int64, 24)
		for w := range rows[pe] {
			rows[pe][w] = int64(pe*24 + w*w)
		}
	}
	if err := m.LoadLocalMem(rows); err != nil {
		t.Fatal(err)
	}
	sm := make([]int64, 40)
	for i := range sm {
		sm[i] = int64(i*i*3 - 50)
	}
	if err := m.LoadScalarMem(sm); err != nil {
		t.Fatal(err)
	}
	m.halted = true
	return m
}

// TestSnapshotImageGolden pins the snapshot byte format: the SHA-256 of the
// golden machine's image at two PE counts. The larger one spans several
// encoder chunks. A change here breaks every stored envelope and every
// served stateDigest.
func TestSnapshotImageGolden(t *testing.T) {
	for _, tc := range []struct {
		pes  int
		want string
	}{
		{4, "5cc885ed0d9185b8c89d132c95f84d4cf19526b0ed109a3d36921d60e9ebb9bd"},
		{300, "0560858efd0fddb86ed8b863ab973fccbf238b59b6010032501837ca28fe5dd4"},
	} {
		m := goldenMachine(t, tc.pes)
		img := m.Snapshot()
		sum := sha256.Sum256(img)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("PEs=%d: image (%d bytes) hashes to %s, want %s", tc.pes, len(img), got, tc.want)
		}
		h := sha256.New()
		if err := m.WriteSnapshot(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("PEs=%d: streamed image hashes to %s, want %s", tc.pes, got, tc.want)
		}
	}
}

// errWriter accepts limit bytes, then fails every write.
type errWriter struct{ limit int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		return 0, io.ErrShortWrite
	}
	w.limit -= len(p)
	return len(p), nil
}

func TestWriteSnapshotReportsWriterError(t *testing.T) {
	m := goldenMachine(t, 300)
	if err := m.WriteSnapshot(&errWriter{limit: snapChunk}); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("WriteSnapshot into a failing writer returned %v", err)
	}
}

// TestWriteSnapshotAllocs: streaming an image into a hash allocates a fixed
// number of times, independent of the machine's size.
func TestWriteSnapshotAllocs(t *testing.T) {
	m := codecMachine(t)
	h := sha256.New()
	allocs := testing.AllocsPerRun(10, func() {
		h.Reset()
		if err := m.WriteSnapshot(h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("WriteSnapshot into a hash allocates %.0f times per image, want O(1)", allocs)
	}
}

// codecMachine is a wide machine (1024 PEs, 4 threads, 64 local words) with
// random state: the image a wide session checkpoints.
func codecMachine(t testing.TB) *Machine {
	m := snapMachineCfg(t, Config{PEs: 1024, Threads: 4, Width: 32, LocalMemWords: 64})
	randomizeState(m, rand.New(rand.NewSource(4)))
	return m
}

func BenchmarkSnapshotCodec(b *testing.B) {
	m := codecMachine(b)
	img := m.Snapshot()
	b.Run("Snapshot", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes = m.Snapshot()
		}
	})
	b.Run("WriteSnapshot-sha256", func(b *testing.B) {
		h := sha256.New()
		b.SetBytes(int64(len(img)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Reset()
			if err := m.WriteSnapshot(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Restore", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.Restore(img); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var sinkBytes []byte
