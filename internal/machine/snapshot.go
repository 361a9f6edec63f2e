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
// The image (version 2) is little-endian. Bookkeeping is 64-bit words,
// each register and memory word takes w = Width/8 bytes, and each flag
// register is a bit plane of ⌈PEs/8⌉ bytes (PE i at bit i%8 of byte i/8):
//
//	header   magic, version, fingerprint, halted (0 or 1)
//	threads  per thread: state, pc, s1..s15 (w each), mailbox length n, n values (w each)
//	pregs    per thread, per register p1..p15: a plane of PEs values (w each)
//	flags    per thread, per register f1..f7: a bit plane, padding bits zero
//	memory   PEs*LocalMemWords local words (PE-major), ScalarMemWords scalar words
//
// s0, p0 and f0 are hardwired (writes are dropped, reads never touch their
// storage), so they are not stored. The planes are the machine's own PE
// vectors (pregPlane, and its bits of each flagRow) in [thread][reg]
// order, so a gang lane's image is that of a solo machine in the same
// state. A flag plane is the little-endian byte order of the machine's
// packed flag words, so a lane whose flags start on a word boundary copies
// them whole. No stored word can exceed the width, so every image
// Restore accepts is canonical: it re-encodes to exactly its bytes.

const (
	snapMagic   = 0x4d544153 // "MTAS"
	snapVersion = 2

	snapHeaderWords = 4
	// snapChunk is WriteSnapshot's buffer size. It holds many planes at
	// paper scale, so a writer sees few, large writes.
	snapChunk = 32 << 10
)

var (
	errSnapTruncated = errors.New("machine: truncated snapshot")
	// ErrSnapshotVersion reports an image in another format version, which
	// no machine restores.
	ErrSnapshotVersion = errors.New("machine: snapshot version mismatch")
)

// fingerprint hashes the configuration and program so a snapshot cannot be
// restored into an incompatible machine. Config.Engine is excluded: it
// selects nothing.
func (m *Machine) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range [...]int{m.cfg.PEs, m.cfg.Threads, int(m.cfg.Width), m.cfg.LocalMemWords,
		m.cfg.ScalarMemWords, m.cfg.MailboxCap, len(m.prog)} {
		put(uint64(v))
	}
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

// flagPlaneBytes is the size of one flag register's bit plane.
func flagPlaneBytes(pes int) int { return (pes + 7) / 8 }

// SnapshotLen is the byte length of the image of a machine with validated
// configuration cfg whose mailboxes hold mailboxed values in all; with
// cfg.Threads*cfg.MailboxCap it is the largest image the machine can make.
func SnapshotLen(cfg Config, mailboxed int) int {
	w := int(cfg.Width / 8)
	threads := cfg.Threads * (3*8 + (isa.NumScalarRegs-1)*w)
	planes := cfg.Threads * ((isa.NumParallelRegs-1)*cfg.PEs*w + (isa.NumFlagRegs-1)*flagPlaneBytes(cfg.PEs))
	return 8*snapHeaderWords + threads + mailboxed*w + planes + (cfg.PEs*cfg.LocalMemWords+cfg.ScalarMemWords)*w
}

// Snapshot returns the serialized architectural state, encoded into one
// exactly sized allocation.
func (m *Machine) Snapshot() []byte {
	mailboxed := 0
	for t := range m.threads {
		mailboxed += len(m.threads[t].mailbox)
	}
	buf := make([]byte, SnapshotLen(m.cfg, mailboxed))
	m.encode(&snapEncoder{buf: buf, k: int(m.cfg.Width / 8)})
	return buf
}

// WriteSnapshot streams the serialized architectural state to w through a
// fixed-size buffer, allocating nothing proportional to the image. The
// bytes written equal Snapshot(). It returns the first error w reports.
func (m *Machine) WriteSnapshot(w io.Writer) error {
	return m.encode(&snapEncoder{buf: make([]byte, snapChunk), w: w, k: int(m.cfg.Width / 8)})
}

// snapEncoder fills buf with the image. With a writer, buf is a chunk
// flushed whenever the next piece would not fit; without one, it holds the
// whole image.
type snapEncoder struct {
	buf []byte
	n   int
	w   io.Writer
	err error
	k   int // bytes per stored register or memory word
}

func (e *snapEncoder) flush() {
	if e.err == nil && e.n > 0 {
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n = 0
}

// room flushes unless k more bytes fit, and returns the free space.
func (e *snapEncoder) room(k int) []byte {
	if e.n+k > len(e.buf) {
		e.flush()
	}
	return e.buf[e.n:]
}

// word encodes one 64-bit bookkeeping word.
func (e *snapEncoder) word(v int64) {
	binary.LittleEndian.PutUint64(e.room(8), uint64(v))
	e.n += 8
}

// vals encodes vs at k bytes each, in chunk-sized pieces.
func (e *snapEncoder) vals(vs []int64) {
	for len(vs) > 0 {
		b := e.room(e.k)
		c := min(len(b)/e.k, len(vs))
		putVals(b, vs[:c], e.k)
		e.n += e.k * c
		vs = vs[c:]
	}
}

// putVals stores vs into b at k bytes each, little-endian, with one
// 64-bit store per 8/k values; b holds at least k*len(vs) bytes.
func putVals(b []byte, vs []int64, k int) {
	i := 0
	switch k {
	case 1:
		for ; i+8 <= len(vs); i += 8 {
			v := vs[i : i+8 : i+8]
			binary.LittleEndian.PutUint64(b[i:], uint64(uint8(v[0]))|uint64(uint8(v[1]))<<8|
				uint64(uint8(v[2]))<<16|uint64(uint8(v[3]))<<24|uint64(uint8(v[4]))<<32|
				uint64(uint8(v[5]))<<40|uint64(uint8(v[6]))<<48|uint64(uint8(v[7]))<<56)
		}
		for ; i < len(vs); i++ {
			b[i] = byte(vs[i])
		}
	case 2:
		for ; i+4 <= len(vs); i += 4 {
			v := vs[i : i+4 : i+4]
			binary.LittleEndian.PutUint64(b[2*i:], uint64(uint16(v[0]))|uint64(uint16(v[1]))<<16|
				uint64(uint16(v[2]))<<32|uint64(uint16(v[3]))<<48)
		}
		for ; i < len(vs); i++ {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(vs[i]))
		}
	default:
		for ; i+2 <= len(vs); i += 2 {
			v := vs[i : i+2 : i+2]
			binary.LittleEndian.PutUint64(b[4*i:], uint64(uint32(v[0]))|uint64(uint32(v[1]))<<32)
		}
		for ; i < len(vs); i++ {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(vs[i]))
		}
	}
}

// bits encodes the n flag bits of row that start at bit o as a bit plane,
// eight flags to a byte, with the padding bits of a short last byte zero.
// A lane whose bits start on a word boundary copies whole words; any
// other shifts each word together from two (loadBits).
func (e *snapEncoder) bits(row []uint64, o, n int) {
	for i := 0; i < n; i += 64 {
		c := min(n-i, 64)
		v, nb := loadBits(row, o+i)&lowBits(c), (c+7)/8
		b := e.room(nb)
		if nb == 8 {
			binary.LittleEndian.PutUint64(b, v)
		} else {
			for j := range nb {
				b[j] = byte(v >> (8 * j))
			}
		}
		e.n += nb
	}
}

// setPlane decodes the bit plane src (bits' layout) into the n flag bits
// of row that start at bit o, leaving the row's other bits as they were.
func setPlane(row []uint64, o, n int, src []byte) {
	for i := 0; i < n; i += 64 {
		c := min(n-i, 64)
		var v uint64
		if b := src[i/8:]; c == 64 {
			v = binary.LittleEndian.Uint64(b)
		} else {
			for j := range (c + 7) / 8 {
				v |= uint64(b[j]) << (8 * j)
			}
		}
		storeBits(row, o+i, v, lowBits(c))
	}
}

func (m *Machine) encode(e *snapEncoder) error {
	e.word(snapMagic)
	e.word(snapVersion)
	e.word(int64(m.fingerprint()))
	e.word(b2i(m.halted))
	for t := range m.threads {
		th := &m.threads[t]
		e.word(int64(th.state))
		e.word(int64(th.pc))
		e.vals(th.sregs[1:])
		e.word(int64(len(th.mailbox)))
		e.vals(th.mailbox)
	}
	for t := range m.threads {
		for r := uint8(1); r < isa.NumParallelRegs; r++ {
			e.vals(m.pregPlane(t, r))
		}
	}
	for t := range m.threads {
		for r := uint8(1); r < isa.NumFlagRegs; r++ {
			e.bits(m.flagRow(t, r), m.off, m.cfg.PEs)
		}
	}
	e.vals(m.localMem)
	e.vals(m.scalarMem)
	if e.w != nil {
		e.flush()
	}
	return e.err
}

// SnapshotInfo is the decoded header of a snapshot image, so the serving
// tier can cheaply validate an envelope before a full Restore.
type SnapshotInfo struct {
	Version     int64
	Fingerprint uint64
}

// snapWord reads the 64-bit word at byte offset off, bounds-checked by the
// caller.
func snapWord(data []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(data[off:]))
}

// InspectSnapshot decodes and validates the fixed header of a snapshot
// image without touching any machine state. It rejects images that are too
// short or carry the wrong magic, and images of another format version
// with an error wrapping ErrSnapshotVersion; fingerprint compatibility is
// the caller's to check (Restore enforces it again regardless).
func InspectSnapshot(data []byte) (SnapshotInfo, error) {
	if len(data) < 8*snapHeaderWords {
		return SnapshotInfo{}, errSnapTruncated
	}
	if v := snapWord(data, 0); v != snapMagic {
		return SnapshotInfo{}, fmt.Errorf("machine: snapshot magic mismatch: %d != %d", v, snapMagic)
	}
	info := SnapshotInfo{Version: snapWord(data, 8), Fingerprint: uint64(snapWord(data, 16))}
	if info.Version != snapVersion {
		return SnapshotInfo{}, fmt.Errorf("%w: %d != %d", ErrSnapshotVersion, info.Version, snapVersion)
	}
	return info, nil
}

// checkSnapshot validates an image against this machine without touching
// its state. Header and thread records are checked in image order, then the
// exact length, so a broken image reports the first defect a sequential
// reader would meet. Then come the values that must be canonical for the
// image to re-encode exactly: halt bit, thread states, PCs, padding bits.
func (m *Machine) checkSnapshot(data []byte) error {
	info, err := InspectSnapshot(data)
	if err != nil {
		return err
	}
	if fp := m.fingerprint(); info.Fingerprint != fp {
		return fmt.Errorf("machine: snapshot machine fingerprint mismatch: %d != %d", int64(info.Fingerprint), int64(fp))
	}
	var canon error // first non-canonical value, reported after the length check
	if halted := snapWord(data, 24); halted != 0 && halted != 1 {
		canon = fmt.Errorf("machine: snapshot halt flag %d is not 0 or 1", halted)
	}
	k := int(m.cfg.Width / 8)
	off, mailboxed := 8*snapHeaderWords, 0
	for t := range m.threads {
		if len(data)-off < 24+k*(isa.NumScalarRegs-1) {
			return errSnapTruncated
		}
		state, pc := snapWord(data, off), snapWord(data, off+8)
		if canon == nil && state != int64(ThreadFree) && state != int64(ThreadActive) {
			canon = fmt.Errorf("machine: snapshot thread %d state %d invalid", t, state)
		}
		if canon == nil && (pc < 0 || pc > int64(len(m.prog))) {
			canon = fmt.Errorf("machine: snapshot thread %d pc %d out of program bounds [0, %d]", t, pc, len(m.prog))
		}
		off += 16 + k*(isa.NumScalarRegs-1)
		n := snapWord(data, off)
		if n < 0 || n > int64(m.cfg.MailboxCap) {
			return fmt.Errorf("machine: snapshot mailbox length %d out of range", n)
		}
		off += 8 + k*int(n)
		mailboxed += int(n)
	}
	end := SnapshotLen(m.cfg, mailboxed)
	switch {
	case len(data) < end:
		return errSnapTruncated
	case len(data) > end:
		return fmt.Errorf("machine: snapshot has %d trailing bytes", len(data)-end)
	case canon != nil:
		return canon
	}
	fb, nf, pad := flagPlaneBytes(m.cfg.PEs), isa.NumFlagRegs-1, m.cfg.PEs%8
	last := end - k*(len(m.localMem)+len(m.scalarMem)) - m.cfg.Threads*nf*fb + fb - 1
	for j := 0; pad != 0 && j < m.cfg.Threads*nf; j++ {
		if data[last+j*fb]>>pad != 0 {
			return fmt.Errorf("machine: snapshot thread %d f%d plane has padding bits set", j/nf, j%nf+1)
		}
	}
	return nil
}

// getVals decodes len(dst) values of k bytes each from byte offset off,
// with one 64-bit load per 8/k values, and returns the offset after them.
func getVals(dst []int64, data []byte, off, k int) int {
	src := data[off : off+k*len(dst)]
	i := 0
	switch k {
	case 1:
		for ; i+8 <= len(dst); i += 8 {
			x, d := binary.LittleEndian.Uint64(src[i:]), dst[i:i+8:i+8]
			d[0], d[1], d[2], d[3] = int64(x&0xff), int64(x>>8&0xff), int64(x>>16&0xff), int64(x>>24&0xff)
			d[4], d[5], d[6], d[7] = int64(x>>32&0xff), int64(x>>40&0xff), int64(x>>48&0xff), int64(x>>56)
		}
		for ; i < len(dst); i++ {
			dst[i] = int64(src[i])
		}
	case 2:
		for ; i+4 <= len(dst); i += 4 {
			x, d := binary.LittleEndian.Uint64(src[2*i:]), dst[i:i+4:i+4]
			d[0], d[1], d[2], d[3] = int64(x&0xffff), int64(x>>16&0xffff), int64(x>>32&0xffff), int64(x>>48)
		}
		for ; i < len(dst); i++ {
			dst[i] = int64(binary.LittleEndian.Uint16(src[2*i:]))
		}
	default:
		for ; i+2 <= len(dst); i += 2 {
			x, d := binary.LittleEndian.Uint64(src[4*i:]), dst[i:i+2:i+2]
			d[0], d[1] = int64(x&0xffffffff), int64(x>>32)
		}
		for ; i < len(dst); i++ {
			dst[i] = int64(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}
	return off + len(src)
}

// Restore loads a snapshot into this machine. The machine must have been
// built with the same configuration and program as the one that produced
// the snapshot. The whole image is validated before any state changes, so
// a rejected image leaves the machine exactly as it was. A restored image
// may hold any word, so both memories are dirty throughout afterwards.
func (m *Machine) Restore(data []byte) error {
	if err := m.checkSnapshot(data); err != nil {
		return err
	}
	m.halted = snapWord(data, 24) == 1
	k := int(m.cfg.Width / 8)
	off := 8 * snapHeaderWords
	for t := range m.threads {
		th := &m.threads[t]
		th.state, th.pc = ThreadState(snapWord(data, off)), int(snapWord(data, off+8))
		off = getVals(th.sregs[1:], data, off+16, k)
		n := int(snapWord(data, off))
		th.mailbox = append(th.mailbox[:0], make([]int64, n)...)
		off = getVals(th.mailbox, data, off+8, k)
	}
	for t := range m.threads {
		for r := uint8(1); r < isa.NumParallelRegs; r++ {
			off = getVals(m.pregPlane(t, r), data, off, k)
		}
	}
	fb := flagPlaneBytes(m.cfg.PEs)
	for t := range m.threads {
		for r := uint8(1); r < isa.NumFlagRegs; r++ {
			setPlane(m.flagRow(t, r), m.off, m.cfg.PEs, data[off:off+fb])
			off += fb
		}
	}
	off = getVals(m.localMem, data, off, k)
	getVals(m.scalarMem, data, off, k)
	m.localHi, m.scalarHi = m.cfg.LocalMemWords, m.cfg.ScalarMemWords
	return nil
}
