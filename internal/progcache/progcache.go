// Package progcache is a content-addressed cache of compiled programs for
// the serving stack. A simulation job carries its program as source text
// (ASCL or MTASC assembly); a daemon serving repeated submissions of the
// same kernel would otherwise re-run the compiler or assembler on every
// request. The cache keys each compiled artifact by the SHA-256 of the
// source together with the architectural configuration it was compiled
// for, so a repeat submission skips the front end entirely and goes
// straight to a warm machine.
//
// This is the paper's amortization argument applied to the compile step:
// the prototype pays the broadcast/reduction pipeline fill once and hides
// it across many threads; the daemon pays the compile once and reuses it
// across many jobs. Together with internal/pool (warm machines) the only
// per-job work left on a hot path is the simulation itself.
//
// Compiled programs are immutable once built — the simulator only ever
// indexes into the instruction slice and copies instructions into fetch
// buffers — so one cached *asc.Program is safely shared by any number of
// concurrently running machines.
//
// The cache is LRU-bounded by entry count and safe for concurrent use.
package progcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"

	asc "repro"
)

// Program is one cached compile artifact: the executable program, the
// generated assembly listing (non-empty only for ASCL sources, where the
// listing is part of the API response), and the content digest it is cached
// under. The digest makes the artifact gang-ready: batch admission groups
// jobs whose Digest and architectural key agree into one lockstep gang
// without re-hashing sources.
type Program struct {
	Prog   *asc.Program
	Asm    string
	Digest string
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      int64 // Get found the key
	Misses    int64 // Get did not find the key
	Evictions int64 // entries dropped by the LRU bound
	Entries   int   // entries currently cached
}

// Key fingerprints a compilation input: the source kind ("ascl" or "asm"),
// the source text, and the architectural configuration key of the machine
// it targets. The config key is ArchKey, so jobs that differ only in host
// engine, trace opt-in, or block-dispatch mode share one entry, while a
// future configuration-dependent compiler keeps correctness.
//
// The "v4" version prefix invalidates keys minted before the block plane:
// cached Programs now lazily carry their block-compiled form (basic
// blocks plus fused superinstructions; see asc.Program.BlocksBuilt), and
// artifacts from before that change must not be served as block-compiled.
// Previous bumps: "v3" marked the gang-ready artifact (Programs carry
// their own Digest), "v2" the decode plane (embedded validated micro-op
// form). Bump the prefix whenever the shape of the cached artifact
// changes.
func Key(kind, source string, cfg asc.Config) string {
	h := sha256.New()
	h.Write([]byte("v4"))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(source))
	h.Write([]byte{0})
	h.Write(archKey(cfg))
	return hex.EncodeToString(h.Sum(nil))
}

// ArchKey is the normalized architectural fingerprint of a machine
// configuration: asc.Config.Key with the host-only TraceDepth and Blocks
// knobs zeroed. Program digests hash it and snapshot envelopes carry it
// (ConfigKey), so its text is wire format shared by every build: it keeps
// the constant "engine=auto" field that Config.Key printed while
// Config.Engine still selected a host engine, and envelopes sealed by
// earlier builds keep resolving.
func ArchKey(cfg asc.Config) string { return string(archKey(cfg)) }

// archKey renders ArchKey into one exactly sized buffer.
func archKey(cfg asc.Config) []byte {
	const engine = " engine=auto"
	cfg.TraceDepth = 0
	cfg.Blocks = asc.BlocksAuto
	k := cfg.Key()
	i := strings.LastIndex(k, " blocks=")
	b := make([]byte, 0, len(k)+len(engine))
	return append(append(append(b, k[:i]...), engine...), k[i:]...)
}

// RequestDigest fingerprints a run request's compilation input — exactly
// one of ascl or asm set, targeting cfg — without compiling anything. It
// is the digest a served job will be cached under, exposed pre-submit so
// a routing tier (ascgw) can consistent-hash jobs to the backend whose
// program cache and warm pool already hold the kernel, and so batch
// admission can group same-program jobs before any backend sees them.
func RequestDigest(ascl, asm string, cfg asc.Config) string {
	kind, source := "asm", asm
	if ascl != "" {
		kind, source = "ascl", ascl
	}
	return Key(kind, source, cfg)
}

// ValidDigest reports whether s has the shape of a program digest minted
// by Key: 64 lowercase hex characters. The migration path validates
// snapshot-envelope digests with this before consulting the cache, so a
// malformed or truncated digest is a typed rejection rather than a
// guaranteed cache miss that silently falls through to recompilation.
func ValidDigest(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ShortDigest abbreviates a content digest for human-facing surfaces —
// span attributes, log lines, waterfall output — the way git abbreviates
// commit hashes. Twelve hex characters (48 bits) is far beyond collision
// range for any realistic program population; the full digest stays the
// cache and routing key.
func ShortDigest(digest string) string {
	if len(digest) <= 12 {
		return digest
	}
	return digest[:12]
}

// Cache is the LRU-bounded content-addressed store.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	stats   Stats
}

// lruEntry is the list payload: the key is duplicated so eviction can
// delete the map entry from the back of the list.
type lruEntry struct {
	key  string
	prog Program
}

// New builds a cache bounded to max entries. max <= 0 disables caching:
// every Get misses and every Put is dropped.
func New(max int) *Cache {
	return &Cache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Get returns the cached artifact for key, marking it most recently used.
func (c *Cache) Get(key string) (Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return Program{}, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).prog, true
}

// Put stores an artifact under key, evicting from the cold end when the
// bound is reached. Storing an existing key refreshes its recency (the
// artifact is identical by construction: the key is content-addressed).
func (c *Cache) Put(key string, prog Program) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.max {
		cold := c.order.Back()
		c.order.Remove(cold)
		delete(c.entries, cold.Value.(*lruEntry).key)
		c.stats.Evictions++
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, prog: prog})
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.order.Len()
	return s
}
