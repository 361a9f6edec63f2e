package asc

import (
	"strings"
	"testing"
)

// TestGeometryDefaults checks the zero Config resolves to the paper
// prototype's geometry and that the footprint matches the flat state
// files a machine actually allocates.
func TestGeometryDefaults(t *testing.T) {
	g, err := Config{}.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.PEs != 16 || g.Threads != 16 || g.LocalMemWords != 1024 || g.ScalarMemWords != 4096 {
		t.Errorf("default geometry = %+v", g)
	}
	if g.RegsPerPE != 16+8 {
		t.Errorf("RegsPerPE = %d, want 24 (parallel + flag)", g.RegsPerPE)
	}
	// local + per-thread PE registers + scalar registers + scalar memory +
	// reduction leaf buffer.
	want := int64(16*1024 + 16*16*24 + 16*16 + 4096 + 16)
	if g.FootprintWords != want {
		t.Errorf("FootprintWords = %d, want %d", g.FootprintWords, want)
	}
	// Header, 16 thread records with s1..s15 and 4 mailbox values in one
	// byte each, p1..p15 planes of 16 bytes, f1..f7 bit planes of 2 bytes,
	// and the memories at one byte a word.
	wantImg := int64(32 + 16*(24+15+4) + 16*15*16 + 16*7*2 + 16*1024 + 4096)
	if g.SnapshotBytes != wantImg {
		t.Errorf("SnapshotBytes = %d, want %d", g.SnapshotBytes, wantImg)
	}
}

// TestGeometryRejectsHostileConfigs is the regression test for the
// serving daemon's admission guard: dimensions that would overflow the
// footprint product (or are outright invalid) must come back as errors,
// never as a small wrapped footprint that passes a cap check.
func TestGeometryRejectsHostileConfigs(t *testing.T) {
	overflow := []Config{
		{PEs: 1 << 62, Threads: 1, LocalMemWords: 4}, // pes*lmw wraps to 0
		{PEs: 1 << 40, LocalMemWords: 1 << 40},
		{PEs: 1 << 61, Threads: 64},
	}
	for _, cfg := range overflow {
		g, err := cfg.Geometry()
		if err == nil {
			t.Errorf("Geometry(%+v) = %+v, want overflow error", cfg, g)
			continue
		}
		if !strings.Contains(err.Error(), "overflow") {
			t.Errorf("Geometry(%+v) error = %v, want overflow", cfg, err)
		}
	}
	invalid := []Config{
		{PEs: -16},
		{Threads: -1},
		{Threads: 65},
		{LocalMemWords: -4},
		{Width: 7},
	}
	for _, cfg := range invalid {
		if _, err := cfg.Geometry(); err == nil {
			t.Errorf("Geometry(%+v) accepted an invalid config", cfg)
		}
	}
}
