package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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
		if _, err := m.ExecDecoded(0, dec(m.prog[m.PC(0)])); err != nil {
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
				if m.ThreadActive(c) && !m.BlockedDecoded(c, dec(m.prog[m.PC(c)])) {
					tid = c
					break
				}
			}
			if tid < 0 {
				t.Fatal("deadlock")
			}
			if _, err := m.ExecDecoded(tid, dec(m.prog[m.PC(tid)])); err != nil {
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
	other, _ := New(Config{PEs: 8, Threads: 4, Width: 16, LocalMemWords: 8}, m.prog)
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
// with seeded values inside the data width, so a machine differs from its
// reset state everywhere.
func randomizeState(m *Machine, r *rand.Rand) {
	word := func() int64 { return r.Int63n(1 << m.cfg.Width) }
	for tid := 0; tid < m.cfg.Threads; tid++ {
		for reg := uint8(1); reg < isa.NumScalarRegs; reg++ {
			m.SetScalar(tid, reg, word())
		}
		for pe := 0; pe < m.cfg.PEs; pe++ {
			for reg := uint8(1); reg < isa.NumParallelRegs; reg++ {
				m.SetParallel(tid, pe, reg, word())
			}
			for fl := uint8(1); fl < isa.NumFlagRegs; fl++ {
				m.SetFlag(tid, pe, fl, r.Intn(2) == 0)
			}
		}
	}
	for i := range m.localMem {
		m.localMem[i] = word()
	}
	for i := range m.scalarMem {
		m.scalarMem[i] = word()
	}
	m.threads[1].state = ThreadActive
	m.threads[1].pc = r.Intn(len(m.prog))
	m.threads[1].mailbox = append(m.threads[1].mailbox[:0], word())
}

// v1Image is a well-formed image of m's configuration and program in
// format version 1, which stored every value, flag and hardwired register
// as a 64-bit word with the planes nested [thread][pe][reg]. It holds a
// machine with every thread free at pc 0 and all state zero.
func v1Image(m *Machine) []byte {
	words := snapHeaderWords + m.cfg.Threads*(3+isa.NumScalarRegs) +
		m.cfg.Threads*m.cfg.PEs*(isa.NumParallelRegs+isa.NumFlagRegs) + len(m.localMem) + len(m.scalarMem)
	img := make([]byte, 8*words)
	for i, w := range []uint64{snapMagic, 1, m.fingerprint()} {
		binary.LittleEndian.PutUint64(img[8*i:], w)
	}
	return img
}

// corruptSnapshots derives broken images from m's valid image, each with
// the error Restore must report for it. m's PE count must not be a multiple
// of 8, so its flag planes have padding bits.
func corruptSnapshots(m *Machine) []struct {
	name string
	img  []byte
	want string
} {
	snap := m.Snapshot()
	put := func(off int, v int64) []byte {
		b := bytes.Clone(snap)
		binary.LittleEndian.PutUint64(b[off:], uint64(v))
		return b
	}
	orByte := func(off int, v byte) []byte {
		b := bytes.Clone(snap)
		b[off] |= v
		return b
	}
	// Byte offsets from the layout. Thread 0's mailbox length follows its
	// state, pc and s1..s15. The flag planes end where the memories begin,
	// and the register planes end where the flag planes begin.
	k, p, threads := int(m.cfg.Width/8), m.cfg.PEs, m.cfg.Threads
	mbox := 8*snapHeaderWords + 16 + k*(isa.NumScalarRegs-1)
	fb := flagPlaneBytes(p)
	flags := len(snap) - k*(len(m.localMem)+len(m.scalarMem)) - threads*(isa.NumFlagRegs-1)*fb
	pregs := flags - threads*(isa.NumParallelRegs-1)*p*k
	return []struct {
		name string
		img  []byte
		want string
	}{
		{"empty", nil, "machine: truncated snapshot"},
		{"truncated header", snap[:20], "machine: truncated snapshot"},
		{"truncated thread record", snap[:mbox-3], "machine: truncated snapshot"},
		{"truncated register plane", snap[:pregs+p*k+1], "machine: truncated snapshot"},
		{"truncated image", snap[:len(snap)-5], "machine: truncated snapshot"},
		{"trailing bytes", append(bytes.Clone(snap), 0, 0, 0, 0, 0, 0, 0, 0, 9), "machine: snapshot has 9 trailing bytes"},
		{"wrong magic", put(0, 0x12345678), "machine: snapshot magic mismatch: 305419896 != 1297367379"},
		{"wrong version", put(8, 3), "machine: snapshot version mismatch: 3 != 2"},
		{"version 1 image", v1Image(m), "machine: snapshot version mismatch: 1 != 2"},
		{"wrong fingerprint", put(16, 42), "machine: snapshot machine fingerprint mismatch: 42 != "},
		{"mailbox length negative", put(mbox, -1), "machine: snapshot mailbox length -1 out of range"},
		{"mailbox length over cap", put(mbox, 1<<40), "machine: snapshot mailbox length 1099511627776 out of range"},
		{"mailbox length over image", put(mbox, int64(m.cfg.MailboxCap))[:mbox+8+k], "machine: truncated snapshot"},
		{"halt flag not a bit", put(24, 2), "machine: snapshot halt flag 2 is not 0 or 1"},
		{"thread state invalid", put(8*snapHeaderWords, 256), "machine: snapshot thread 0 state 256 invalid"},
		{"pc out of bounds", put(8*snapHeaderWords+8, 99), "machine: snapshot thread 0 pc 99 out of program bounds [0, 7]"},
		{"flag padding bit", orByte(flags+fb-1, 1<<(p%8)), "machine: snapshot thread 0 f1 plane has padding bits set"},
		{"flag not a bit", orByte(len(snap)-k*(len(m.localMem)+len(m.scalarMem))-1, 0xff),
			fmt.Sprintf("machine: snapshot thread %d f%d plane has padding bits set", threads-1, isa.NumFlagRegs-1)},
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

// Property: snapshot/restore is the identity on random machine states, at
// every data width (each packs words differently) and at a PE count whose
// flag planes span two bytes with padding.
func TestSnapshotIdentityProperty(t *testing.T) {
	for _, w := range []uint{8, 16, 32} {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			cfg := Config{PEs: 12, Threads: 4, Width: w, LocalMemWords: 8}
			f := func(seed int64) bool {
				m := snapMachineCfg(t, cfg)
				randomizeState(m, rand.New(rand.NewSource(seed)))
				snap := m.Snapshot()
				m2 := snapMachineCfg(t, cfg)
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
		})
	}
}

// FuzzRestore: Restore never panics on arbitrary bytes, a rejected image
// leaves the machine untouched, and an accepted one re-encodes to exactly
// the bytes restored. Every input is offered to a machine of each data
// width; the fingerprint lets at most one of them accept it.
func FuzzRestore(f *testing.F) {
	var ms []*Machine
	for _, w := range []uint{8, 16, 32} {
		// A small machine keeps images short enough for the fuzzer to explore.
		cfg := Config{PEs: 2, Threads: 2, Width: w, LocalMemWords: 2, ScalarMemWords: 4, MailboxCap: 2}
		src := snapMachineCfg(f, cfg)
		f.Add(src.Snapshot())
		randomizeState(src, rand.New(rand.NewSource(3)))
		f.Add(src.Snapshot())
		for _, tc := range corruptSnapshots(src) {
			f.Add(tc.img)
		}
		// One machine per width across inputs, so a rejection is checked
		// against whatever state the last accepted image left.
		ms = append(ms, snapMachineCfg(f, cfg))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range ms {
			before := m.Snapshot()
			if err := m.Restore(data); err != nil {
				if !bytes.Equal(m.Snapshot(), before) {
					t.Fatalf("width %d: rejected image (%v) changed the machine's state", m.cfg.Width, err)
				}
				continue
			}
			if !bytes.Equal(m.Snapshot(), data) {
				t.Fatalf("width %d: accepted image does not re-encode to the same bytes", m.cfg.Width)
			}
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
// served stateDigest. Spot checks at byte offsets worked out by hand from
// the layout anchor the 4-PE image independently of the encoder.
func TestSnapshotImageGolden(t *testing.T) {
	img := goldenMachine(t, 4).Snapshot()
	for _, c := range []struct {
		what string
		off  int
		want []byte
	}{
		{"thread 0 s1 = 37", 32 + 16, []byte{37, 0}},
		{"thread 1 mailbox = [7, 0xbeef]", 32 + 54 + 46, []byte{2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0xef, 0xbe}},
		{"thread 0 p1 plane starts 0x5a5d", 32 + 3*54 + 4, []byte{0x5d, 0x5a}},
		{"thread 0 f1, f2, f3 planes", 32 + 3*54 + 4 + 3*15*4*2, []byte{0, 0, 0x0f}},
		{"scalar word 0 = -50 at width 16", len(img) - 40*2, []byte{0xce, 0xff}},
	} {
		if got := img[c.off : c.off+len(c.want)]; !bytes.Equal(got, c.want) {
			t.Errorf("%s: bytes at %d are % x, want % x", c.what, c.off, got, c.want)
		}
	}

	for _, tc := range []struct {
		pes  int
		want string
	}{
		{4, "5fdb0583e896e176ab2f82d71596ecc3f0d05bba8c598fb690b684a75cf3b30f"},
		{300, "4da0ec713c2ba430e2e145a1b80e96341af43b91ec2d7a02d8a9e099e4673fa2"},
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

// TestSnapshotSize pins the image length at the wide-session shape (1024
// PEs, 4 threads, width 16, 64 local words, 4096 scalar words, empty
// mailboxes) to its closed form, and to at most a quarter of the version-1
// image, which stored every value, flag and hardwired register in 8 bytes.
func TestSnapshotSize(t *testing.T) {
	const pes, threads, w, local, scalar = 1024, 4, 2, 64, 4096
	m := snapMachineCfg(t, Config{PEs: pes, Threads: threads, Width: 8 * w, LocalMemWords: local, ScalarMemWords: scalar})
	want := 8*4 + // header
		threads*(8+8+15*w+8) + // state, pc, s1..s15, mailbox length
		threads*15*pes*w + // p1..p15 planes
		threads*7*pes/8 + // f1..f7 bit planes
		(pes*local+scalar)*w // memories
	v1 := 8 * (4 + threads*(2+16+1) + threads*pes*(16+8) + pes*local + scalar)
	if want != 265976 || v1 != 1344128 {
		t.Fatalf("closed forms give %d (v2) and %d (v1) bytes", want, v1)
	}
	if got := len(m.Snapshot()); got != want {
		t.Errorf("image is %d bytes, want %d", got, want)
	}
	if 4*want > v1 {
		t.Errorf("image %d bytes is more than a quarter of version 1's %d", want, v1)
	}
	if got := SnapshotLen(m.cfg, threads*m.cfg.MailboxCap); got != want+threads*m.cfg.MailboxCap*w {
		t.Errorf("largest image %d bytes, want %d", got, want+threads*m.cfg.MailboxCap*w)
	}
}

// TestWriteSnapshotMatchesSnapshot: the streamed image equals Snapshot's
// at every width, with encoder chunk boundaries falling inside register
// planes, flag planes and memories.
func TestWriteSnapshotMatchesSnapshot(t *testing.T) {
	for _, w := range []uint{8, 16, 32} {
		for _, pes := range []int{2731, 40961} {
			m := snapMachineCfg(t, Config{PEs: pes, Threads: 2, Width: w, LocalMemWords: 3, ScalarMemWords: 5})
			randomizeState(m, rand.New(rand.NewSource(int64(pes))))
			var buf bytes.Buffer
			if err := m.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), m.Snapshot()) {
				t.Errorf("width %d, %d PEs: streamed image differs from Snapshot", w, pes)
			}
		}
	}
}

// TestWriteSnapshotAllocs: streaming an image into a hash allocates a fixed
// number of times, independent of the machine's size.
func TestWriteSnapshotAllocs(t *testing.T) {
	m := codecMachine(t, 32)
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

// codecMachine is a wide machine (1024 PEs, 4 threads, 64 local words) of
// the given data width with random state: at width 16, the image a wide
// session checkpoints.
func codecMachine(t testing.TB, width uint) *Machine {
	m := snapMachineCfg(t, Config{PEs: 1024, Threads: 4, Width: width, LocalMemWords: 64})
	randomizeState(m, rand.New(rand.NewSource(4)))
	return m
}

func BenchmarkSnapshotCodec(b *testing.B) {
	for _, w := range []uint{16, 32} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) { benchmarkSnapshotCodec(b, codecMachine(b, w)) })
	}
}

func benchmarkSnapshotCodec(b *testing.B, m *Machine) {
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
