package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/isa"
)

// Snapshot serializes the complete architectural state — thread contexts
// (state, PC, scalar registers, mailboxes), PE register and flag files,
// local memories, control-unit data memory, and the halt flag — into a
// portable byte image. Restore loads it back into a machine built with the
// same configuration and program (both are fingerprinted in the header).
//
// Snapshots capture architectural state only: they are taken between
// instructions, which is always a consistent point because Exec applies
// each instruction atomically. Microarchitectural state (pipeline
// occupancy, scoreboard) is derived and rebuilds naturally when simulation
// resumes from a quiescent point.
//
// The image is a sequence of little-endian 64-bit words:
//
//	header   magic, version, fingerprint, halted (0 or 1)
//	threads  per thread: state, pc, NumScalarRegs sregs, mailbox length n, n words
//	planes   per thread, per PE: NumParallelRegs pregs, NumFlagRegs flags (0 or 1)
//	memory   PEs*LocalMemWords local words (PE-major), ScalarMemWords scalar words
//
// The planes keep the original [thread][pe][reg] nesting, so the image is
// unchanged by the register-major layout of the flat files.

const (
	snapMagic   = 0x4d544153 // "MTAS"
	snapVersion = 1

	snapHeaderWords = 4
	// snapRowWords is one PE's slice of one thread's register and flag files.
	snapRowWords = isa.NumParallelRegs + isa.NumFlagRegs
	snapRowBytes = 8 * snapRowWords
	// snapChunk is WriteSnapshot's buffer size. It holds many PE rows, so
	// a writer sees few, large writes.
	snapChunk = 32 << 10
)

var errSnapTruncated = errors.New("machine: truncated snapshot")

// fingerprint hashes the configuration and program so a snapshot cannot be
// restored into an incompatible machine. Config.Engine is deliberately
// excluded: the host engine is architecturally invisible, so snapshots move
// freely between serial and sharded machines (the differential tests rely
// on byte-identical images across engines).
func (m *Machine) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.cfg.PEs))
	put(uint64(m.cfg.Threads))
	put(uint64(m.cfg.Width))
	put(uint64(m.cfg.LocalMemWords))
	put(uint64(m.cfg.ScalarMemWords))
	put(uint64(m.cfg.MailboxCap))
	put(uint64(len(m.prog)))
	for _, in := range m.prog {
		w, err := in.Encode()
		if err != nil {
			// Unencodable instructions cannot come from the assembler;
			// hash a placeholder so fingerprinting still works.
			w = 0xffffffff
		}
		put(uint64(w))
	}
	return h.Sum64()
}

// snapshotWords is the length of the machine's current image in words.
func (m *Machine) snapshotWords() int {
	n := snapHeaderWords
	for t := range m.threads {
		n += 3 + isa.NumScalarRegs + len(m.threads[t].mailbox)
	}
	return n + m.cfg.Threads*m.cfg.PEs*snapRowWords + len(m.localMem) + len(m.scalarMem)
}

// Snapshot returns the serialized architectural state, encoded into one
// exactly sized allocation.
func (m *Machine) Snapshot() []byte {
	buf := make([]byte, 8*m.snapshotWords())
	m.encode(&snapEncoder{buf: buf})
	return buf
}

// WriteSnapshot streams the serialized architectural state to w through a
// fixed-size buffer, so the encoding allocates nothing proportional to the
// image. The bytes written equal Snapshot(). It returns the first error w
// reports.
func (m *Machine) WriteSnapshot(w io.Writer) error {
	return m.encode(&snapEncoder{buf: make([]byte, snapChunk), w: w})
}

// snapEncoder fills buf with image words. With a writer, buf is a chunk that
// is flushed whenever the next piece would not fit; without one, buf is
// sized to hold the whole image and is never flushed.
type snapEncoder struct {
	buf []byte
	n   int
	w   io.Writer
	err error
}

func (e *snapEncoder) flush() {
	if e.err == nil && e.n > 0 {
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n = 0
}

// next returns the following k bytes of the buffer, flushing first if they
// would not fit. k is at most one PE row.
func (e *snapEncoder) next(k int) []byte {
	if e.n+k > len(e.buf) {
		e.flush()
	}
	b := e.buf[e.n : e.n+k]
	e.n += k
	return b
}

func (e *snapEncoder) word(v int64) {
	binary.LittleEndian.PutUint64(e.next(8), uint64(v))
}

// words encodes vs in as many chunk-sized pieces as it takes.
func (e *snapEncoder) words(vs []int64) {
	for len(vs) > 0 {
		if e.n+8 > len(e.buf) {
			e.flush()
		}
		k := min((len(e.buf)-e.n)/8, len(vs))
		b := e.buf[e.n : e.n+8*k]
		for i, v := range vs[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		e.n += 8 * k
		vs = vs[k:]
	}
}

func b2w(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) encode(e *snapEncoder) error {
	e.word(snapMagic)
	e.word(snapVersion)
	e.word(int64(m.fingerprint()))
	e.word(b2w(m.halted))
	for t := range m.threads {
		th := &m.threads[t]
		e.word(int64(th.state))
		e.word(int64(th.pc))
		e.words(th.sregs[:])
		e.word(int64(len(th.mailbox)))
		e.words(th.mailbox)
	}
	p := m.cfg.PEs
	for t := 0; t < m.cfg.Threads; t++ {
		pregs := m.pregs[t*isa.NumParallelRegs*p : (t+1)*isa.NumParallelRegs*p]
		flags := m.flags[t*isa.NumFlagRegs*p : (t+1)*isa.NumFlagRegs*p]
		for pe := 0; pe < p; pe++ {
			row := e.next(snapRowBytes)
			for r := 0; r < isa.NumParallelRegs; r++ {
				binary.LittleEndian.PutUint64(row[8*r:], uint64(pregs[r*p+pe]))
			}
			row = row[8*isa.NumParallelRegs:]
			for r := 0; r < isa.NumFlagRegs; r++ {
				binary.LittleEndian.PutUint64(row[8*r:], uint64(b2w(flags[r*p+pe])))
			}
		}
	}
	e.words(m.localMem)
	e.words(m.scalarMem)
	if e.w != nil {
		e.flush()
	}
	return e.err
}

// SnapshotInfo is the decoded header of a snapshot image, exposed so the
// serving tier can cheaply validate an envelope (version, machine/program
// fingerprint) before committing a warm machine to a full Restore.
type SnapshotInfo struct {
	Version     int64
	Fingerprint uint64
	Halted      bool
}

// snapWord reads the image word at byte offset off, which the caller has
// bounds-checked.
func snapWord(data []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(data[off:]))
}

// InspectSnapshot decodes and validates the fixed header of a snapshot
// image without touching any machine state. It rejects images that are too
// short or carry the wrong magic/version; fingerprint compatibility is the
// caller's to check (Restore enforces it again regardless).
func InspectSnapshot(data []byte) (SnapshotInfo, error) {
	if len(data) < 8*snapHeaderWords {
		return SnapshotInfo{}, errSnapTruncated
	}
	if v := snapWord(data, 0); v != snapMagic {
		return SnapshotInfo{}, fmt.Errorf("machine: snapshot magic mismatch: %d != %d", v, snapMagic)
	}
	info := SnapshotInfo{
		Version:     snapWord(data, 8),
		Fingerprint: uint64(snapWord(data, 16)),
		Halted:      snapWord(data, 24) != 0,
	}
	if info.Version != snapVersion {
		return SnapshotInfo{}, fmt.Errorf("machine: snapshot version mismatch: %d != %d", info.Version, snapVersion)
	}
	return info, nil
}

// checkSnapshot validates an image against this machine without touching
// its state. Header and thread records are checked in image order, then the
// exact length, so a broken image reports the first defect a sequential
// reader would meet. Only then are the words checked that must be
// canonical for Snapshot to re-encode the image exactly: the halt bit,
// thread states and PCs, and flags.
func (m *Machine) checkSnapshot(data []byte) error {
	off := 0
	word := func() (int64, error) {
		if len(data)-off < 8 {
			return 0, errSnapTruncated
		}
		off += 8
		return snapWord(data, off-8), nil
	}
	for _, h := range [...]struct {
		what string
		want int64
	}{{"magic", snapMagic}, {"version", snapVersion}, {"machine fingerprint", int64(m.fingerprint())}} {
		v, err := word()
		if err != nil {
			return err
		}
		if v != h.want {
			return fmt.Errorf("machine: snapshot %s mismatch: %d != %d", h.what, v, h.want)
		}
	}
	halted, err := word()
	if err != nil {
		return err
	}
	var canon error // first non-canonical word, reported after the length check
	if halted != 0 && halted != 1 {
		canon = fmt.Errorf("machine: snapshot halt flag %d is not 0 or 1", halted)
	}
	for t := range m.threads {
		state, err := word()
		if err != nil {
			return err
		}
		pc, err := word()
		if err != nil {
			return err
		}
		if canon == nil && state != int64(ThreadFree) && state != int64(ThreadActive) {
			canon = fmt.Errorf("machine: snapshot thread %d state %d invalid", t, state)
		}
		if canon == nil && (pc < 0 || pc > int64(len(m.prog))) {
			canon = fmt.Errorf("machine: snapshot thread %d pc %d out of program bounds [0, %d]", t, pc, len(m.prog))
		}
		off += 8 * isa.NumScalarRegs
		n, err := word()
		if err != nil {
			return err
		}
		if n < 0 || n > int64(m.cfg.MailboxCap) {
			return fmt.Errorf("machine: snapshot mailbox length %d out of range", n)
		}
		off += 8 * int(n)
	}
	end := off + 8*(m.cfg.Threads*m.cfg.PEs*snapRowWords+len(m.localMem)+len(m.scalarMem))
	switch {
	case len(data) < end:
		return errSnapTruncated
	case len(data) > end:
		return fmt.Errorf("machine: snapshot has %d trailing bytes", len(data)-end)
	case canon != nil:
		return canon
	}
	for i := 0; i < m.cfg.Threads*m.cfg.PEs; i++ {
		flags := (*[8 * isa.NumFlagRegs]byte)(data[off+8*(i*snapRowWords+isa.NumParallelRegs):])
		var bits uint64
		for f := 0; f < len(flags); f += 8 {
			bits |= binary.LittleEndian.Uint64(flags[f:])
		}
		if bits > 1 {
			return fmt.Errorf("machine: snapshot thread %d PE %d has a flag word that is not 0 or 1", i/m.cfg.PEs, i%m.cfg.PEs)
		}
	}
	return nil
}

// getWords decodes len(dst) words starting at byte offset off and returns
// the offset after them.
func getWords(dst []int64, data []byte, off int) int {
	src := data[off : off+8*len(dst)]
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return off + 8*len(dst)
}

// Restore loads a snapshot into this machine. The machine must have been
// built with the same configuration and program as the one that produced
// the snapshot. The whole image is validated before any state changes, so
// a rejected image leaves the machine exactly as it was.
func (m *Machine) Restore(data []byte) error {
	if err := m.checkSnapshot(data); err != nil {
		return err
	}
	m.halted = snapWord(data, 24) == 1
	off := 8 * snapHeaderWords
	for t := range m.threads {
		th := &m.threads[t]
		th.state = ThreadState(snapWord(data, off))
		th.pc = int(snapWord(data, off+8))
		off = getWords(th.sregs[:], data, off+16)
		n := int(snapWord(data, off))
		th.mailbox = append(th.mailbox[:0], make([]int64, n)...)
		off = getWords(th.mailbox, data, off+8)
	}
	// Plane-major: each register plane fills sequentially, gathering its
	// word from every PE row of the thread.
	p := m.cfg.PEs
	for t := 0; t < m.cfg.Threads; t++ {
		rows := data[off : off+snapRowBytes*p]
		for r := 0; r < isa.NumParallelRegs; r++ {
			dst := m.pregs[(t*isa.NumParallelRegs+r)*p:][:p]
			src := rows[8*r:]
			for pe := range dst {
				dst[pe] = int64(binary.LittleEndian.Uint64(src[snapRowBytes*pe:]))
			}
		}
		for r := 0; r < isa.NumFlagRegs; r++ {
			dst := m.flags[(t*isa.NumFlagRegs+r)*p:][:p]
			src := rows[8*(isa.NumParallelRegs+r):]
			for pe := range dst {
				dst[pe] = src[snapRowBytes*pe] != 0 // validated as 0 or 1
			}
		}
		off += snapRowBytes * p
	}
	off = getWords(m.localMem, data, off)
	getWords(m.scalarMem, data, off)
	return nil
}
