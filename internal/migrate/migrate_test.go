package migrate_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	asc "repro"
	"repro/client"
	"repro/internal/migrate"
	"repro/internal/pipeline"
	"repro/internal/progcache"
)

// longSrc runs for tens of thousands of cycles (well past the engine's
// poll window) and halts with a deterministic result: 2000 iterations of
// sum(idx()) over 8 PEs = 2000 * 28 = 56000 in scalar word 0.
const longSrc = `
	scalar n = 2000;
	scalar acc = 0;
	parallel v = idx();
	while (n > 0) {
		acc = acc + sumval(v);
		n = n - 1;
	}
	write(0, acc);
`

func wireConfig() client.MachineConfig { return client.MachineConfig{PEs: 8, Width: 32} }

func compileLong(t *testing.T) (*asc.Program, string) {
	t.Helper()
	prog, _, err := asc.CompileASCL(longSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, progcache.RequestDigest(longSrc, "", wireConfig().ASC())
}

// mintMid runs longSrc on a serial machine to an arbitrary mid-run
// boundary and packs the suspension into a sealed envelope, exactly as the
// serving tier does (cumulative Cycles pinned to the resume boundary).
func mintMid(t *testing.T, budget int64) (*client.SnapshotEnvelope, asc.Stats) {
	t.Helper()
	prog, digest := compileLong(t)
	p, err := asc.New(wireConfig().ASC(), prog)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.RunContext(context.Background(), 9000)
	if !errors.Is(err, asc.ErrCycleLimit) {
		t.Fatalf("expected mid-run cycle limit, got %v", err)
	}
	boundary := p.Cycle()
	s1.Cycles = boundary
	req := client.RunRequest{ASCL: longSrc, Config: wireConfig(), MaxCycles: budget, DumpScalar: 1}
	env := migrate.Pack("s-mig-test", req, digest, p.Snapshot(),
		boundary, budget-boundary, 1, 0, s1)
	return env, s1
}

func TestSealVerify(t *testing.T) {
	env, _ := mintMid(t, 1_000_000)
	if err := migrate.Verify(env); err != nil {
		t.Fatalf("freshly sealed envelope failed verification: %v", err)
	}
	tampered := *env
	tampered.ConsumedCycles += 7
	if err := migrate.Verify(&tampered); err == nil {
		t.Fatal("tampered envelope passed verification")
	}
	// Stripping the sum does not get a tampered envelope through: Sum is
	// required, so neither Verify nor Validate accepts it.
	stripped := tampered
	stripped.Stats.Instructions += 1000
	stripped.Sum = ""
	if err := migrate.Verify(&stripped); err == nil {
		t.Fatal("sum-less envelope passed verification")
	}
	if err := migrate.Validate(&stripped); err == nil {
		t.Fatal("tampered sum-less envelope passed validation")
	}
	// Re-sealing after a legitimate mutation restores integrity.
	resealed := *env
	resealed.ConsumedCycles += 7
	migrate.Seal(&resealed)
	if err := migrate.Verify(&resealed); err != nil {
		t.Fatalf("resealed envelope rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	if err := migrate.Validate(nil); err == nil {
		t.Error("nil envelope accepted")
	}
	base, _ := mintMid(t, 1_000_000)
	if err := migrate.Validate(base); err != nil {
		t.Fatalf("valid envelope rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*client.SnapshotEnvelope)
		want   string
		stale  bool
	}{
		{"tampered", func(e *client.SnapshotEnvelope) { e.RemainingCycles++; e.Sum = base.Sum }, "integrity digest", false},
		{"version", func(e *client.SnapshotEnvelope) { e.Version = 99 }, "unsupported envelope version", true},
		// Another version's Sum is defined differently: the version check
		// comes before the digest, so an old envelope is stale, not corrupt.
		{"version before sum", func(e *client.SnapshotEnvelope) { e.Version = 1; e.Sum = base.Sum }, "unsupported envelope version 1", true},
		{"no session id", func(e *client.SnapshotEnvelope) { e.SessionID = "" }, "no session id", false},
		{"malformed digest", func(e *client.SnapshotEnvelope) { e.Digest = "nope" }, "malformed program digest", false},
		{"config key mismatch", func(e *client.SnapshotEnvelope) { e.Request.Config.PEs = 16 }, "does not match", false},
		{"memory image", func(e *client.SnapshotEnvelope) { e.Request.ScalarMem = []int64{1} }, "memory images", false},
		{"truncated snapshot", func(e *client.SnapshotEnvelope) { e.Snapshot = e.Snapshot[:8] }, "snapshot", false},
		{"image version", func(e *client.SnapshotEnvelope) {
			e.Snapshot = bytes.Clone(e.Snapshot)
			e.Snapshot[8] = 1 // the version word: an image of format version 1
		}, "stale_snapshot: ", true},
		{"spent budget", func(e *client.SnapshotEnvelope) { e.RemainingCycles = 0 }, "no remaining cycle budget", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := *base
			tc.mutate(&env)
			if tc.name != "tampered" && tc.name != "version before sum" {
				migrate.Seal(&env)
			}
			err := migrate.Validate(&env)
			if err == nil {
				t.Fatal("broken envelope accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			var stale *migrate.StaleError
			if errors.As(err, &stale) != tc.stale {
				t.Errorf("error %q: StaleError %v, want %v", err, stale != nil, tc.stale)
			}
		})
	}
}

// TestValidateRefusesHostileSealed: the sum is an integrity digest anyone
// can recompute, so a client can seal field values Pack never mints.
// Validate must refuse each of them, correctly sealed, as a plain (400)
// error rather than a StaleError.
func TestValidateRefusesHostileSealed(t *testing.T) {
	base, _ := mintMid(t, 1_000_000)
	if err := migrate.Validate(base); err != nil {
		t.Fatalf("valid envelope rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*client.SnapshotEnvelope)
		want   string
	}{
		{"trace", func(e *client.SnapshotEnvelope) { e.Request.Trace = true }, "trace"},
		{"consumed", func(e *client.SnapshotEnvelope) { e.ConsumedCycles = -1 }, "negative counter"},
		{"checkpoints", func(e *client.SnapshotEnvelope) { e.Checkpoints = -3 }, "negative counter"},
		{"cadence", func(e *client.SnapshotEnvelope) { e.CheckpointEveryCycles = -100 }, "negative counter"},
		{"cycles", func(e *client.SnapshotEnvelope) { e.Stats.Cycles = -5 }, "negative counter"},
		{"instructions", func(e *client.SnapshotEnvelope) { e.Stats.Instructions = -1 }, "negative counter"},
		{"scalar ops", func(e *client.SnapshotEnvelope) { e.Stats.ScalarOps = -1 }, "negative counter"},
		{"parallel ops", func(e *client.SnapshotEnvelope) { e.Stats.ParallelOps = -1 }, "negative counter"},
		{"reduction ops", func(e *client.SnapshotEnvelope) { e.Stats.ReductionOps = -1 }, "negative counter"},
		{"idle", func(e *client.SnapshotEnvelope) { e.Stats.IdleCycles = -1 }, "negative counter"},
		{"contention", func(e *client.SnapshotEnvelope) { e.Stats.Contention = -1 }, "negative counter"},
		{"fetches", func(e *client.SnapshotEnvelope) { e.Stats.Fetches = -1 }, "negative counter"},
		{"flushes", func(e *client.SnapshotEnvelope) { e.Stats.Flushes = -1 }, "negative counter"},
		{"idle cause", func(e *client.SnapshotEnvelope) { e.Stats.IdleByCause = map[string]int64{"reduction": -2} }, "negative counter"},
		{"stall cause", func(e *client.SnapshotEnvelope) { e.Stats.StallByCause = map[string]int64{"raw": -2} }, "negative counter"},
		{"per thread", func(e *client.SnapshotEnvelope) { e.Stats.PerThread = []int64{4, -1} }, "negative counter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := *base // each mutation replaces a field, never edits base's maps or slices
			tc.mutate(&env)
			migrate.Seal(&env)
			err := migrate.Validate(&env)
			if err == nil {
				t.Fatal("hostile sealed envelope accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			var stale *migrate.StaleError
			if errors.As(err, &stale) {
				t.Errorf("error %q is a StaleError (409), want a plain error (400)", err)
			}
		})
	}
}

func TestResolve(t *testing.T) {
	env, _ := mintMid(t, 1_000_000)
	prog, digest := compileLong(t)
	compile := func() (progcache.Program, error) {
		p, asmText, err := asc.CompileASCL(longSrc)
		if err != nil {
			return progcache.Program{}, err
		}
		return progcache.Program{Prog: p, Asm: asmText, Digest: digest}, nil
	}
	compileBomb := func() (progcache.Program, error) {
		t.Fatal("compile invoked on a path that must not recompile")
		return progcache.Program{}, nil
	}

	t.Run("cache hit", func(t *testing.T) {
		cache := progcache.New(4)
		cache.Put(env.Digest, progcache.Program{Prog: prog, Digest: digest})
		art, hit, err := migrate.Resolve(cache, env, compileBomb)
		if err != nil || !hit {
			t.Fatalf("hit=%v err=%v, want cached artifact", hit, err)
		}
		if art.Digest != digest {
			t.Errorf("artifact digest %s, want %s", art.Digest, digest)
		}
	})
	t.Run("evicted recompiles to same digest", func(t *testing.T) {
		cache := progcache.New(4)
		art, hit, err := migrate.Resolve(cache, env, compile)
		if err != nil || hit {
			t.Fatalf("hit=%v err=%v, want recompile", hit, err)
		}
		if art.Prog == nil {
			t.Fatal("recompile returned no program")
		}
		// The rebuilt artifact is re-cached under the same digest.
		if _, ok := cache.Get(env.Digest); !ok {
			t.Error("recompiled artifact was not re-cached")
		}
	})
	t.Run("no source is stale", func(t *testing.T) {
		cache := progcache.New(4)
		bare := *env
		bare.Request.ASCL = ""
		_, _, err := migrate.Resolve(cache, &bare, compileBomb)
		var stale *migrate.StaleError
		if !errors.As(err, &stale) {
			t.Fatalf("want StaleError, got %v", err)
		}
		if !strings.HasPrefix(stale.Error(), "stale_snapshot:") {
			t.Errorf("stale error %q lacks the machine-readable marker", stale)
		}
	})
	t.Run("digest drift is stale", func(t *testing.T) {
		cache := progcache.New(4)
		drifted := *env
		drifted.Digest = progcache.RequestDigest("write(0, 1);", "", wireConfig().ASC())
		_, _, err := migrate.Resolve(cache, &drifted, compileBomb)
		var stale *migrate.StaleError
		if !errors.As(err, &stale) {
			t.Fatalf("want StaleError, got %v", err)
		}
		if !strings.Contains(stale.Error(), "refusing silent recompute") {
			t.Errorf("stale error %q does not refuse the recompute", stale)
		}
	})
}

// addStats folds two segments' statistics the way the serving tier does.
func addStats(a, b asc.Stats) asc.Stats {
	a.Cycles += b.Cycles
	a.Instructions += b.Instructions
	a.Scalar += b.Scalar
	a.Parallel += b.Parallel
	a.Reduction += b.Reduction
	a.IdleCycles += b.IdleCycles
	a.Contention += b.Contention
	return a
}

// TestMidRunResumeBitIdentical is the migration invariant at machine
// level: suspend a run mid-flight into an envelope, resume it on a fresh
// machine, and the final architectural snapshot is byte-identical to an
// uninterrupted run's — with the merged cycle and instruction accounting
// equal as well.
func TestMidRunResumeBitIdentical(t *testing.T) {
	prog, _ := compileLong(t)
	cfg := wireConfig().ASC()

	a, err := asc.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Run(0)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	wantSnap := a.Snapshot()

	env, s1 := mintMid(t, 1_000_000)
	if err := migrate.Validate(env); err != nil {
		t.Fatalf("mid-run envelope invalid: %v", err)
	}
	// The wire round trip must be lossless.
	if got := migrate.StatsFromWire(env.Stats); got.Cycles != s1.Cycles || got.Instructions != s1.Instructions {
		t.Fatalf("stats wire round trip lost data: %+v vs %+v", got, s1)
	}

	b, err := asc.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(env.Snapshot); err != nil {
		t.Fatalf("restore on a fresh machine: %v", err)
	}
	s2, err := b.Run(env.RemainingCycles)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	gotSnap := b.Snapshot()

	if !bytes.Equal(wantSnap, gotSnap) {
		t.Fatalf("final snapshots diverge after a mid-run resume (%d vs %d bytes)", len(wantSnap), len(gotSnap))
	}
	if got := b.ScalarMem(0); got != 56000 {
		t.Errorf("resumed result = %d, want 56000", got)
	}
	merged := addStats(migrate.StatsFromWire(env.Stats), s2)
	if merged.Cycles != want.Cycles {
		t.Errorf("merged cycles %d, want %d (uninterrupted)", merged.Cycles, want.Cycles)
	}
	if merged.Instructions != want.Instructions || merged.Scalar != want.Scalar ||
		merged.Parallel != want.Parallel || merged.Reduction != want.Reduction {
		t.Errorf("merged instruction mix (%d/%d/%d/%d) diverges from uninterrupted (%d/%d/%d/%d)",
			merged.Instructions, merged.Scalar, merged.Parallel, merged.Reduction,
			want.Instructions, want.Scalar, want.Parallel, want.Reduction)
	}
}

// TestResumeBytesBound checks ResumeBytes against the widest envelope a
// session can mint: a hostile source, 64 threads, every counter and cause
// at the int64 maximum, and a snapshot of exactly the bounded length.
func TestResumeBytesBound(t *testing.T) {
	const most = math.MaxInt64
	req := client.RunRequest{
		Asm:       hostileSource + strings.Repeat("\u2028<>&\"", 100),
		Config:    client.MachineConfig{PEs: 4096, Threads: 64, Width: 32, LocalMemWords: 1024, Arity: 16, SeqMul: true, FixedPriority: true, SMT: true},
		LocalMem:  [][]int64{make([]int64, 4096)},
		ScalarMem: make([]int64, 4096),
		MaxCycles: most, TimeoutMs: most, DumpScalar: most, DumpLocal: most,
	}
	stats := asc.Stats{
		Cycles: most, Instructions: most, Scalar: most, Parallel: most, Reduction: most,
		IdleCycles: most, Contention: most, Fetches: most, Flushes: most,
		IdleByCause: map[string]int64{}, StallByCause: map[string]int64{},
		PerThread: make([]int64, 64),
	}
	for i := range stats.PerThread {
		stats.PerThread[i] = most
	}
	for h := pipeline.HazardKind(0); h <= pipeline.HazardFetch; h++ {
		stats.IdleByCause[h.String()] = most
		stats.StallByCause[h.String()] = most
	}
	for _, image := range []int64{0, 1, 2, 3, 1001} {
		env := migrate.Pack("s"+strings.Repeat("f", 64), req, strings.Repeat("ab", 32), make([]byte, image),
			most, most, most, most, stats)
		body, err := json.Marshal(client.ResumeRequest{Envelope: env})
		if err != nil {
			t.Fatal(err)
		}
		bound := migrate.ResumeBytes(req, image)
		if int64(len(body)) > bound {
			t.Errorf("image %d B: resume body is %d bytes, bound says %d", image, len(body), bound)
		}
		t.Logf("image %d B: resume body %d bytes, bound %d", image, len(body), bound)
	}
}

// hostileSource holds everything the envelope digest's JSON encoding must
// escape exactly as encoding/json does: quotes, a literal `"snapshot":""`,
// HTML-sensitive characters, and U+2028.
const hostileSource = "; \"quoted\" \"snapshot\":\"\" <a>&amp; \u2028 \\ end\n\thalt\n"

// goldenEnvelope is a fixed migrate.Pack envelope with a hostile request
// source and non-trivial stats.
func goldenEnvelope() *client.SnapshotEnvelope {
	snap := make([]byte, 1001)
	for i := range snap {
		snap[i] = byte(i*7 + i/256)
	}
	req := client.RunRequest{
		Asm:       hostileSource,
		Config:    client.MachineConfig{PEs: 64, Threads: 4, Width: 16},
		LocalMem:  [][]int64{{1, 2}},
		MaxCycles: 500000,
		DumpLocal: 2,
	}
	stats := asc.Stats{
		Cycles: 1234, Instructions: 999, Scalar: 400, Parallel: 500, Reduction: 99,
		IdleCycles:   7,
		IdleByCause:  map[string]int64{"reduction": 5, "snapshot": 2},
		StallByCause: map[string]int64{"raw": 3},
		PerThread:    []int64{600, 399},
	}
	return migrate.Pack("s-golden", req, strings.Repeat("ab", 32), snap, 1234, 498766, 2, 4096, stats)
}

// TestEnvelopeSumGolden pins the envelope integrity digest: envelopes
// sealed by any backend version must verify on every other.
func TestEnvelopeSumGolden(t *testing.T) {
	const want = "7c816ba209a44cae1c80605b236bfb404c77cacc403db576877c2535277451d2"
	if got := goldenEnvelope().Sum; got != want {
		t.Errorf("golden envelope sum = %s, want %s", got, want)
	}
}

// TestSumMatchesMarshal checks the digest against its definition: SHA-256
// of json.Marshal of the envelope with Sum cleared and Snapshot null, then
// the snapshot's length as 8 little-endian bytes, then its raw bytes. It
// runs on envelopes with hostile strings, a "snapshot" map key, and nil,
// empty, and odd-length snapshots.
func TestSumMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	strs := []string{"", hostileSource, `"snapshot":null`, `,"snapshot":"",`, "<>&  ", "\\\"", "\x00\x1f\xff"}
	pick := func() string { return strs[r.Intn(len(strs))] }
	for i := 0; i < 300; i++ {
		env := goldenEnvelope()
		env.SessionID = pick()
		env.Request.Asm = pick()
		env.Request.ASCL = pick()
		env.ConfigKey = pick()
		env.Stats.IdleByCause = map[string]int64{pick(): r.Int63(), "snapshot": 1}
		switch i % 3 {
		case 0:
			env.Snapshot = nil
		case 1:
			env.Snapshot = []byte{}
		default:
			env.Snapshot = make([]byte, r.Intn(3000))
			r.Read(env.Snapshot)
		}
		migrate.Seal(env)
		plain := *env
		plain.Sum = ""
		plain.Snapshot = nil
		data, err := json.Marshal(&plain)
		if err != nil {
			t.Fatal(err)
		}
		data = binary.LittleEndian.AppendUint64(data, uint64(len(env.Snapshot)))
		want := sha256.Sum256(append(data, env.Snapshot...))
		if env.Sum != hex.EncodeToString(want[:]) {
			t.Fatalf("envelope %d: sum %s disagrees with the hash of its JSON encoding %x", i, env.Sum, want)
		}
		if err := migrate.Verify(env); err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
	}
}

// FuzzEnvelope feeds arbitrary bytes through the resume path's trust
// boundary: json.Unmarshal into a SnapshotEnvelope, then Validate. Either
// step may reject the input, but neither may panic, and an envelope
// Validate accepts must re-Seal to the Sum it arrived with. An accepted
// envelope then goes on through Resolve against a fresh program cache,
// compiling from the envelope's own request as ascd does: it may only fail
// with a StaleError or a compile error, and on success it yields the
// envelope's digest and a second Resolve is a cache hit.
//
//	go test -fuzz=FuzzEnvelope ./internal/migrate
func FuzzEnvelope(f *testing.F) {
	cfg := client.MachineConfig{PEs: 4, Width: 16}
	prog, err := asc.Assemble("halt")
	if err != nil {
		f.Fatal(err)
	}
	p, err := asc.New(cfg.ASC(), prog)
	if err != nil {
		f.Fatal(err)
	}
	pack := func(src, digest string) *client.SnapshotEnvelope {
		req := client.RunRequest{Asm: src, Config: cfg, MaxCycles: 1000}
		env := migrate.Pack("s-fuzz", req, digest, p.Snapshot(), 0, 1000, 0, 0, asc.Stats{})
		if err := migrate.Validate(env); err != nil {
			f.Fatalf("seed envelope rejected: %v", err)
		}
		return env
	}
	seeds := []*client.SnapshotEnvelope{
		pack("halt", progcache.RequestDigest("", "halt", cfg.ASC())),   // resolves
		pack("halt", strings.Repeat("cd", 32)),                         // stale digest
		pack("bogus", progcache.RequestDigest("", "bogus", cfg.ASC())), // compile error
		goldenEnvelope(),
	}
	for _, env := range seeds {
		data, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":1,"snapshot":"AAAA","sum":""}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var env client.SnapshotEnvelope
		if json.Unmarshal(data, &env) != nil || migrate.Validate(&env) != nil {
			return
		}
		if sum := env.Sum; sum != "" {
			if migrate.Seal(&env); env.Sum != sum {
				t.Fatalf("accepted envelope re-seals to %s, arrived with %s", env.Sum, sum)
			}
		}
		cache := progcache.New(4)
		compile := func() (progcache.Program, error) { return compileRequest(&env.Request) }
		art, hit, err := migrate.Resolve(cache, &env, compile)
		var stale *migrate.StaleError
		var cerr *compileError
		switch {
		case errors.As(err, &stale), errors.As(err, &cerr):
			return
		case err != nil:
			t.Fatalf("Resolve failed with neither a StaleError nor a compile error: %v", err)
		case hit:
			t.Fatal("Resolve reported a cache hit on an empty cache")
		case art.Digest != env.Digest:
			t.Fatalf("Resolve returned digest %s, envelope carries %s", art.Digest, env.Digest)
		}
		if _, hit, err := migrate.Resolve(cache, &env, compile); err != nil || !hit {
			t.Fatalf("second Resolve: hit=%v err=%v, want a cache hit", hit, err)
		}
	})
}

// compileError marks a compile func's failure to build the source.
type compileError struct{ err error }

func (e *compileError) Error() string { return "compiling: " + e.err.Error() }

// compileRequest builds req's program the way ascd's compile step does,
// digested under the request's own cache key.
func compileRequest(req *client.RunRequest) (progcache.Program, error) {
	var (
		prog    *asc.Program
		asmText string
		err     error
	)
	if req.ASCL != "" {
		prog, asmText, err = asc.CompileASCL(req.ASCL)
	} else {
		prog, err = asc.Assemble(req.Asm)
	}
	if err != nil {
		return progcache.Program{}, &compileError{err}
	}
	return progcache.Program{Prog: prog, Asm: asmText, Digest: progcache.RequestDigest(req.ASCL, req.Asm, req.Config.ASC())}, nil
}
