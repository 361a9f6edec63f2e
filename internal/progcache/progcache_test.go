package progcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	asc "repro"
)

func mustProgram(t *testing.T) Program {
	t.Helper()
	p, err := asc.Assemble("halt")
	if err != nil {
		t.Fatal(err)
	}
	return Program{Prog: p}
}

// TestKeyContentAddressing checks the key separates source kind, source
// text, and architecture, and ignores host-only configuration knobs.
func TestKeyContentAddressing(t *testing.T) {
	base := asc.Config{PEs: 16, Width: 32}
	k := Key("asm", "halt", base)
	if k == Key("ascl", "halt", base) {
		t.Error("kind does not separate keys")
	}
	if k == Key("asm", "halt ", base) {
		t.Error("source text does not separate keys")
	}
	if k == Key("asm", "halt", asc.Config{PEs: 32, Width: 32}) {
		t.Error("architecture does not separate keys")
	}
	// Host engine and trace depth are architecturally invisible to the
	// compiler: the same source on the same architecture shares one entry.
	traced := base
	traced.TraceDepth = 64
	traced.Engine = asc.EngineSerial
	if k != Key("asm", "halt", traced) {
		t.Error("host-only knobs (Engine, TraceDepth) changed the key")
	}
	// Default resolution: the zero config and the spelled-out prototype
	// must share an entry.
	if Key("asm", "halt", asc.Config{}) != Key("asm", "halt", asc.Config{PEs: 16, Threads: 16, Width: 8, LocalMemWords: 1024, Arity: 4}) {
		t.Error("zero config and explicit prototype defaults produced different keys")
	}
}

// TestArchKeyWireText pins ArchKey's text: envelopes carry it, and
// program digests hash it, across builds.
func TestArchKeyWireText(t *testing.T) {
	const want = "pes=16 threads=16 width=8 lmem=1024 arity=4 seqmul=false fixed=false smt=false trace=0 engine=auto blocks=auto"
	for _, cfg := range []asc.Config{{}, {Engine: asc.EngineSerial, TraceDepth: 8, Blocks: asc.BlocksOff}} {
		if got := ArchKey(cfg); got != want {
			t.Errorf("ArchKey(%+v) = %q, want %q", cfg, got, want)
		}
	}
	if got, want := Key("asm", "halt", asc.Config{PEs: 16, Width: 32}), "8752ac0ce367e47d80c463d18ba4a518d3d3782077d24613b880800ff629265c"; got != want {
		t.Errorf("program digest = %s, want %s (the digest envelopes carry must not move)", got, want)
	}
}

// v3Key reimplements the pre-block-plane cache key exactly as it was
// minted before the "v4" bump: "v3" prefix, Engine and TraceDepth zeroed,
// no Blocks normalization (the knob did not exist).
func v3Key(kind, source string, cfg asc.Config) string {
	cfg.Engine = asc.EngineAuto
	cfg.TraceDepth = 0
	h := sha256.New()
	h.Write([]byte("v3"))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(source))
	h.Write([]byte{0})
	h.Write([]byte(cfg.Key()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestKeyVersionBumpInvalidatesV3 pins the block-plane cache-key bump: an
// artifact cached by a pre-block-plane server (v3 key) must never resolve
// under the current key for the same input — v3 Programs do not carry the
// block-compiled form and must not be served as if they did. The Blocks
// knob itself is host-only and must NOT separate keys.
func TestKeyVersionBumpInvalidatesV3(t *testing.T) {
	base := asc.Config{PEs: 16, Width: 32}
	old := v3Key("asm", "halt", base)
	cur := Key("asm", "halt", base)
	if old == cur {
		t.Fatal("v4 key equals the v3 key for the same input: version bump missing")
	}
	c := New(4)
	c.Put(old, mustProgram(t))
	if _, ok := c.Get(cur); ok {
		t.Error("artifact cached under the v3 key resolved under the v4 key")
	}
	blocksOff := base
	blocksOff.Blocks = asc.BlocksOff
	if cur != Key("asm", "halt", blocksOff) {
		t.Error("host-only Blocks mode changed the key")
	}
}

// TestLRUEviction fills the cache past its bound and checks cold entries
// leave, counters move, and recency is refreshed by Get.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	prog := mustProgram(t)
	c.Put("a", prog)
	c.Put("b", prog)
	if _, ok := c.Get("a"); !ok { // refresh "a": now "b" is coldest
		t.Fatal("a missing before eviction")
	}
	c.Put("c", prog) // evicts "b"
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was evicted despite being recently used")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing after insert")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", s)
	}
	if s.Hits != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 hits, 1 miss", s)
	}
}

// TestDisabled checks max <= 0 turns the cache off rather than panicking.
func TestDisabled(t *testing.T) {
	c := New(0)
	c.Put("a", mustProgram(t))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
	if s := c.Stats(); s.Entries != 0 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 0 entries, 1 miss", s)
	}
}

// TestConcurrentAccess hammers the cache from many goroutines under a
// small bound; run with -race.
func TestConcurrentAccess(t *testing.T) {
	c := New(4)
	prog := mustProgram(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%8)
				if _, ok := c.Get(key); !ok {
					c.Put(key, prog)
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries > 4 {
		t.Errorf("entries = %d, want <= 4", s.Entries)
	}
}
