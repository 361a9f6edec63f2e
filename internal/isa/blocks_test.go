package isa

import "testing"

func mustDecode(t *testing.T, prog []Inst) *DecodedProgram {
	t.Helper()
	dp, err := DecodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

// TestBuildBlocksLeadersAndTerminators pins the partitioning rules on a
// program with every leader source: pc 0, a branch target, a fall-through
// successor, and a spawn target. Terminators must be outside every block.
func TestBuildBlocksLeadersAndTerminators(t *testing.T) {
	prog := []Inst{
		/* 0 */ {Op: ADDI, Rd: 1, Ra: 0, Imm: 1},
		/* 1 */ {Op: ADD, Rd: 2, Ra: 1, Rb: 1},
		/* 2 */ {Op: BEQ, Rd: 1, Ra: 2, Imm: 6}, // terminator; 6 is a leader
		/* 3 */ {Op: SUB, Rd: 3, Ra: 2, Rb: 1}, // leader (fall-through of 2)
		/* 4 */ {Op: TSPAWN, Rd: 4, Imm: 8}, // terminator; 8 is a leader
		/* 5 */ {Op: XOR, Rd: 5, Ra: 3, Rb: 1}, // leader (fall-through of 4)
		/* 6 */ {Op: OR, Rd: 6, Ra: 5, Rb: 1}, // leader (branch target): new block
		/* 7 */ {Op: J, Imm: 10}, // terminator
		/* 8 */ {Op: AND, Rd: 7, Ra: 6, Rb: 1}, // leader (spawn target)
		/* 9 */ {Op: ADD, Rd: 8, Ra: 7, Rb: 1},
		/* 10 */ {Op: HALT}, // terminator
	}
	bp := BuildBlocks(mustDecode(t, prog))

	wantStarts := map[int]int{0: 2, 3: 1, 5: 1, 6: 1, 8: 2}
	if got := len(bp.Blocks()); got != len(wantStarts) {
		t.Fatalf("got %d blocks, want %d: %+v", got, len(wantStarts), bp.Blocks())
	}
	for _, b := range bp.Blocks() {
		n, ok := wantStarts[b.Start]
		if !ok {
			t.Fatalf("unexpected block at pc %d", b.Start)
		}
		if b.N != n {
			t.Fatalf("block at pc %d covers %d ops, want %d", b.Start, b.N, n)
		}
	}
	for _, pc := range []int{2, 4, 7, 10} {
		if _, _, _, ok := bp.Lookup(pc); ok {
			t.Fatalf("terminator at pc %d resolved inside a block", pc)
		}
	}
	for _, pc := range []int{-1, len(prog), len(prog) + 5} {
		if _, _, _, ok := bp.Lookup(pc); ok {
			t.Fatalf("out-of-range pc %d resolved inside a block", pc)
		}
	}
	// Every non-terminator pc must resolve to the block containing it.
	for pc := 0; pc < len(prog); pc++ {
		d := mustDecode(t, prog).At(pc)
		if terminator(d) {
			continue
		}
		b, op, sub, ok := bp.Lookup(pc)
		if !ok {
			t.Fatalf("pc %d not covered by any block", pc)
		}
		if pc < b.Start || pc >= b.Start+b.N {
			t.Fatalf("pc %d resolved to block [%d,%d)", pc, b.Start, b.Start+b.N)
		}
		if got := b.Ops[op].PC + sub; got != pc {
			t.Fatalf("pc %d resolved to op pc %d + sub %d", pc, b.Ops[op].PC, sub)
		}
	}
}

// TestFusionCatalog pins the recognized idioms: compare+flag, compare+fold
// (reduction tail), fixed-register ALU runs with and without a reduction
// tail, and the exclusions (loads, mul, scalar ops, lone reductions).
func TestFusionCatalog(t *testing.T) {
	cases := []struct {
		name string
		prog []Inst
		want []FuseKind // per block-op of the single expected block
		lens []int
	}{
		{
			name: "compare+flag is the associative search step",
			prog: []Inst{
				{Op: PCLT, Rd: 1, Ra: 1, Rb: 2},
				{Op: FAND, Rd: 2, Ra: 1, Rb: 0},
				{Op: HALT},
			},
			want: []FuseKind{FuseCompareFlag},
			lens: []int{2},
		},
		{
			name: "compare feeding a reduction folds",
			prog: []Inst{
				{Op: PCLT, Rd: 1, Ra: 1, Rb: 2},
				{Op: RCOUNT, Rd: 3, Ra: 1},
				{Op: HALT},
			},
			want: []FuseKind{FuseCompareFold},
			lens: []int{2},
		},
		{
			name: "ALU run with reduction tail",
			prog: []Inst{
				{Op: PADD, Rd: 1, Ra: 1, Rb: 2},
				{Op: PSUB, Rd: 2, Ra: 1, Rb: 3},
				{Op: RSUM, Rd: 4, Ra: 2},
				{Op: HALT},
			},
			want: []FuseKind{FuseALURun},
			lens: []int{3},
		},
		{
			name: "run splits at MaxFuse",
			prog: []Inst{
				{Op: PADD, Rd: 1, Ra: 1, Rb: 2},
				{Op: PADD, Rd: 2, Ra: 2, Rb: 3},
				{Op: PADD, Rd: 3, Ra: 3, Rb: 4},
				{Op: PADD, Rd: 4, Ra: 4, Rb: 5},
				{Op: PADD, Rd: 5, Ra: 5, Rb: 6},
				{Op: HALT},
			},
			want: []FuseKind{FuseALURun, FuseNone},
			lens: []int{4, 1},
		},
		{
			name: "parallel load breaks the run",
			prog: []Inst{
				{Op: PADD, Rd: 1, Ra: 1, Rb: 2},
				{Op: PLW, Rd: 2, Ra: 1, Imm: 0},
				{Op: PADD, Rd: 3, Ra: 2, Rb: 1},
				{Op: HALT},
			},
			want: []FuseKind{FuseNone, FuseNone, FuseNone},
			lens: []int{1, 1, 1},
		},
		{
			name: "parallel multiply never fuses",
			prog: []Inst{
				{Op: PMUL, Rd: 1, Ra: 1, Rb: 2},
				{Op: PADD, Rd: 2, Ra: 1, Rb: 3},
				{Op: HALT},
			},
			want: []FuseKind{FuseNone, FuseNone},
			lens: []int{1, 1},
		},
		{
			name: "scalar ops never fuse",
			prog: []Inst{
				{Op: ADD, Rd: 1, Ra: 1, Rb: 2},
				{Op: ADD, Rd: 2, Ra: 1, Rb: 3},
				{Op: HALT},
			},
			want: []FuseKind{FuseNone, FuseNone},
			lens: []int{1, 1},
		},
		{
			name: "a reduction alone stays a singleton",
			prog: []Inst{
				{Op: RSUM, Rd: 1, Ra: 2},
				{Op: RCOUNT, Rd: 3, Ra: 1},
				{Op: HALT},
			},
			want: []FuseKind{FuseNone, FuseNone},
			lens: []int{1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			canon := make([]Inst, len(tc.prog))
			for i, in := range tc.prog {
				canon[i] = in.Canonical()
			}
			bp := BuildBlocks(mustDecode(t, canon))
			if len(bp.Blocks()) != 1 {
				t.Fatalf("got %d blocks, want 1", len(bp.Blocks()))
			}
			blk := bp.Blocks()[0]
			if len(blk.Ops) != len(tc.want) {
				t.Fatalf("got %d block-ops, want %d: %+v", len(blk.Ops), len(tc.want), blk.Ops)
			}
			for i, bo := range blk.Ops {
				if bo.Fuse != tc.want[i] {
					t.Errorf("op %d: fuse kind %d, want %d", i, bo.Fuse, tc.want[i])
				}
				if len(bo.Ops) != tc.lens[i] {
					t.Errorf("op %d: %d constituents, want %d", i, len(bo.Ops), tc.lens[i])
				}
			}
		})
	}
}

// TestBlocksLazyBuild pins the lazy single-build contract BlocksBuilt
// reports on: unbuilt until first use, then built and shared.
func TestBlocksLazyBuild(t *testing.T) {
	dp := mustDecode(t, []Inst{{Op: ADDI, Rd: 1, Ra: 0, Imm: 1}, {Op: HALT}})
	if dp.BlocksBuilt() {
		t.Fatal("fresh program reports blocks built")
	}
	bp := dp.Blocks()
	if !dp.BlocksBuilt() {
		t.Fatal("blocks not marked built after Blocks()")
	}
	if dp.Blocks() != bp {
		t.Fatal("Blocks() rebuilt instead of reusing the shared artifact")
	}
	if blks := bp.Blocks(); len(blks) != 1 || blks[0].N != 1 {
		t.Fatalf("unexpected blocks %+v", blks)
	}
}

// TestBuildBlocksEmpty covers the degenerate empty program.
func TestBuildBlocksEmpty(t *testing.T) {
	bp := BuildBlocks(mustDecode(t, nil))
	if len(bp.Blocks()) != 0 {
		t.Fatalf("empty program produced blocks: %+v", bp.Blocks())
	}
	if _, _, _, ok := bp.Lookup(0); ok {
		t.Fatal("empty program resolved pc 0")
	}
}
