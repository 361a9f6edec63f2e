package baseline

import (
	"testing"

	"repro/internal/asm"
)

func TestNonPipelinedCycleLimit(t *testing.T) {
	prog := asm.MustAssemble("spin:\n j spin")
	n, _ := NewNonPipelined(mcfg(2, 1), prog.Insts)
	if _, err := n.Run(100); err == nil {
		t.Error("cycle limit not enforced")
	}
}

func TestNonPipelinedTrapSurfaces(t *testing.T) {
	prog := asm.MustAssemble("lw s1, 9999(s0)\nhalt")
	n, _ := NewNonPipelined(mcfg(2, 1), prog.Insts)
	if _, err := n.Run(0); err == nil {
		t.Error("trap did not surface")
	}
}

func TestNonPipelinedFalkoffLatencyScalesWithWidth(t *testing.T) {
	src := "pidx p1\nrmax s1, p1\nhalt"
	cycles := map[uint]int64{}
	for _, width := range []uint{8, 16, 32} {
		cfg := mcfg(4, 1)
		cfg.Width = width
		n, err := NewNonPipelined(cfg, asm.MustAssemble(src).Insts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		cycles[width] = res.Cycles
	}
	// pidx(1) + rmax(width, Falkoff bit-serial) + halt(1).
	for _, width := range []uint{8, 16, 32} {
		if want := int64(width) + 2; cycles[width] != want {
			t.Errorf("width %d: %d cycles, want %d", width, cycles[width], want)
		}
	}
}

func TestCoarseGrainCycleLimit(t *testing.T) {
	prog := asm.MustAssemble("spin:\n j spin")
	cg, _ := NewCoarseGrain(mcfg(2, 2), 4, prog.Insts)
	if _, err := cg.Run(100); err == nil {
		t.Error("cycle limit not enforced")
	}
}

func TestCoarseGrainDeadlock(t *testing.T) {
	prog := asm.MustAssemble("trecv s1\nhalt")
	cg, _ := NewCoarseGrain(mcfg(2, 2), 4, prog.Insts)
	if _, err := cg.Run(0); err == nil {
		t.Error("deadlock not detected")
	}
}

func TestCoarseGrainTrapSurfaces(t *testing.T) {
	prog := asm.MustAssemble("lw s1, 9999(s0)\nhalt")
	cg, _ := NewCoarseGrain(mcfg(2, 2), 4, prog.Insts)
	if _, err := cg.Run(0); err == nil {
		t.Error("trap did not surface")
	}
}

func TestCoarseGrainParamsExposed(t *testing.T) {
	cg, _ := NewCoarseGrain(mcfg(64, 2), 4, asm.MustAssemble("halt").Insts)
	p := cg.params
	if p.B != 3 || p.R != 6 {
		t.Errorf("params b=%d r=%d, want 3, 6", p.B, p.R)
	}
}
