package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/network"
)

// TestSumFastBound pins where RSUM may add its responders directly instead
// of folding the saturating tree: only when the positive responders sum to
// at most the unit's largest value and the negative ones to at least its
// smallest. Each case runs on a 4-PE machine at widths 8, 16 and 32
// against the reference interpreter and a hand-computed tree value. The
// subtree cases total within range while the pair (hi, 1) saturates, so
// a plain sum would be off by one: they must take the tree.
func TestSumFastBound(t *testing.T) {
	for _, width := range []uint{8, 16, 32} {
		lo, hi := network.SatLimits(width)
		cases := []struct {
			name   string
			leaves [4]int64
			want   int64
		}{
			{"reaches hi", [4]int64{hi - 1, 1, 0, 0}, hi},
			{"passes hi by 1", [4]int64{hi, 1, 0, 0}, hi},
			{"reaches lo", [4]int64{lo + 1, -1, 0, 0}, lo},
			{"passes lo by 1", [4]int64{lo, -1, 0, 0}, lo},
			{"subtree saturates high", [4]int64{hi, 1, -2, 0}, hi - 2},
			{"subtree saturates low", [4]int64{lo, -1, 2, 0}, lo + 2},
			{"mixed within range", [4]int64{hi / 2, -3, hi/2 - 3, 3}, hi - 4},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("w%d/%s", width, tc.name), func(t *testing.T) {
				cfg := Config{PEs: 4, Threads: 1, Width: width}
				prog := []isa.Inst{{Op: isa.NOP}}
				m, err := New(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := New(cfg, prog)
				for pe, v := range tc.leaves {
					m.SetParallel(0, pe, 1, v)
					ref.SetParallel(0, pe, 1, v)
				}
				in := isa.Inst{Op: isa.RSUM, Rd: 2, Ra: 1}
				if _, err := m.ExecDecoded(0, dec(in)); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.ExecRef(0, in); err != nil {
					t.Fatal(err)
				}
				got, want := m.Scalar(0, 2), tc.want&(int64(1)<<width-1)
				if got != want || ref.Scalar(0, 2) != want {
					t.Fatalf("RSUM over %v = %#x, reference %#x, want %#x", tc.leaves, got, ref.Scalar(0, 2), want)
				}
			})
		}
	}
}

// TestRestoreIntoGangLanes: an image restores into any lane of a gang
// plane — lanes that start mid-word, on a word boundary, or straddle two
// words — re-encodes to the same bytes, and leaves the other lanes' flag
// bits, the rows' padding and f0 as they were.
func TestRestoreIntoGangLanes(t *testing.T) {
	for _, pes := range lanePEs {
		cfg := Config{PEs: pes, Threads: 2, Width: 16, LocalMemWords: 3, ScalarMemWords: 4, MailboxCap: 2}
		dp, err := isa.DecodeProgram(snapProg.Insts)
		if err != nil {
			t.Fatal(err)
		}
		lanes, err := NewGangLanes(cfg, dp, 3)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(pes)))
		for _, m := range lanes {
			randomizeState(m, r)
		}
		for j := range lanes {
			src := snapMachineCfg(t, cfg)
			randomizeState(src, r)
			img := src.Snapshot()
			guard := newFlagGuard(lanes, []int{j})
			guard.save()
			if err := lanes[j].Restore(img); err != nil {
				t.Fatalf("pes=%d lane %d: %v", pes, j, err)
			}
			guard.check(t, fmt.Sprintf("pes=%d restore into lane %d", pes, j))
			if !bytes.Equal(lanes[j].Snapshot(), img) {
				t.Fatalf("pes=%d lane %d: restored lane does not re-encode to its image", pes, j)
			}
		}
	}
}

// fuzzOps are the opcodes FuzzExecLanes draws from: every compare, every
// flag function, masked ALU ops with each B form, PIDX and PLI, PLW and
// PSW, and every reduction kind.
var fuzzOps = []isa.Op{
	isa.PCEQ, isa.PCNE, isa.PCLT, isa.PCLE, isa.PCGT, isa.PCGE, isa.PCLTU, isa.PCLEU, isa.PCGTU, isa.PCGEU,
	isa.FAND, isa.FOR, isa.FXOR, isa.FANDN, isa.FNOT, isa.FMOV, isa.FSET, isa.FCLR,
	isa.PADD, isa.PSUB, isa.PMUL, isa.PSRA, isa.PADDI, isa.PIDX, isa.PLI,
	isa.PLW, isa.PSW,
	isa.RCOUNT, isa.RANY, isa.RFIRST, isa.RSUM, isa.ROR, isa.RAND, isa.RMAX, isa.RMIN, isa.RMAXU, isa.RMINU,
}

// FuzzExecLanes drives the lane-wide kernels with random geometry and
// programs: a gang of 1 to 5 lanes of 1 to 200 PEs, a live set, and a
// sequence of compare, flag, masked ALU, PLW/PSW and reduction micro-ops
// over random registers, masks and data, 4 input bytes per op. Every live
// lane must match the reference interpreter on a solo machine in outcome,
// trap and snapshot; the flag plane must keep its invariants (flagGuard);
// and the other lanes must not change.
func FuzzExecLanes(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(2), uint8(0b101), []byte{0, 1, 2, 3, 10, 3, 1, 2, 27, 2, 1, 9, 30, 5, 6, 1})
	f.Add(int64(2), uint8(63), uint8(4), uint8(0b1110), []byte{13, 1, 1, 1, 28, 3, 1, 0, 29, 4, 3, 3, 12, 0, 0, 5})
	f.Add(int64(3), uint8(129), uint8(0), uint8(1), []byte{18, 2, 3, 4, 25, 6, 2, 1, 31, 7, 2, 2, 33, 1, 3, 7})
	f.Fuzz(func(t *testing.T, seed int64, pes, nLanes, liveBits uint8, prog []byte) {
		p, n := 1+int(pes)%200, 1+int(nLanes)%5
		var live []int
		for j := range n {
			if liveBits>>j&1 != 0 {
				live = append(live, j)
			}
		}
		if len(live) == 0 {
			live = []int{n - 1}
		}
		if len(prog) > 64 {
			prog = prog[:64]
		}
		cfg := Config{PEs: p, Threads: 1, Width: []uint{8, 16, 32}[seed&3%3], LocalMemWords: 5, ScalarMemWords: 4}
		dp, err := isa.DecodeProgram(make([]isa.Inst, 2))
		if err != nil {
			t.Fatal(err)
		}
		lanes, err := NewGangLanes(cfg, dp, n)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*Machine, n)
		r := rand.New(rand.NewSource(seed))
		for j := range refs {
			refs[j], _ = NewDecoded(cfg, dp)
			seedLane(r, 0, lanes[j], refs[j])
		}
		guard := newFlagGuard(lanes, live)
		outs, traps := make([]Outcome, n), make([]error, n)
		for i := 0; i+4 <= len(prog); i += 4 {
			b := prog[i : i+4]
			d, err := isa.DecodeInst(isa.Inst{Op: fuzzOps[int(b[0])%len(fuzzOps)],
				Rd: b[1] & 7, Ra: b[2] & 7, Rb: b[3] & 7, Mask: b[1] >> 3 & 7, SB: b[2]&8 != 0, Imm: int32(b[3]>>3) - 8})
			if err != nil {
				continue
			}
			for _, j := range live {
				lanes[j].SetPC(0, 0)
				refs[j].SetPC(0, 0)
			}
			before := snapshots(lanes)
			guard.save()
			agree := ExecLanes(lanes, live, 0, &d, outs, traps)
			guard.check(t, d.Inst.String())
			for k, j := range live {
				want, wantErr := refs[j].ExecRef(0, d.Inst)
				got, gotErr := outs[0], error(nil)
				if !agree {
					got, gotErr = outs[k], traps[k]
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || wantErr == nil && got != want {
					t.Fatalf("%v lane %d: %+v %v, reference %+v %v", d.Inst, j, got, gotErr, want, wantErr)
				}
				if !bytes.Equal(lanes[j].Snapshot(), refs[j].Snapshot()) {
					t.Fatalf("%v lane %d: state differs from the reference", d.Inst, j)
				}
			}
			checkUntouched(t, d.Inst.String(), lanes, live, before)
		}
	})
}
