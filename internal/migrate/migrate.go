// Package migrate packs a suspended simulation into a portable snapshot
// envelope and validates envelopes on the way back in — the serving tier's
// live-migration layer. An envelope is everything a backend that has never
// seen a session needs to continue it bit-identically: the machine's
// architectural snapshot, the content digest of the compiled program it
// was running, the engine-agnostic architectural config key, the original
// request (memory images stripped — the snapshot carries all state), the
// remaining cycle budget, and the simulation statistics folded across all
// prior segments.
//
// Three layers of validation run before any machine state is touched, each
// with a distinct failure mode:
//
//   - Seal/Verify: the envelope's own integrity digest (Sum) detects
//     corruption or tampering in transit.
//   - Validate: schema version, digest shape, config-key agreement, and
//     the snapshot image's header (magic) reject structurally broken
//     envelopes. An image in another format version is a StaleError.
//   - Resolve: the program digest must resolve in the content-addressed
//     cache, or recompile from the embedded source to the *same* digest.
//     Anything else is a StaleError ("stale_snapshot:"), mapped to HTTP
//     409 — never a panic, and never a silent recompute under a different
//     cache key.
//
// machine.Restore's fingerprint check remains the last line of defense:
// even a validated envelope cannot restore into an incompatible machine.
package migrate

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	asc "repro"
	"repro/client"
	"repro/internal/machine"
	"repro/internal/progcache"
)

// Version is the snapshot-envelope schema version this package mints and
// accepts.
const Version = 1

// StaleError reports an envelope that can no longer be honored: its
// snapshot image is in a format version this build does not restore, or
// its program artifact was evicted from the cache and the embedded source
// is missing or no longer compiles to the same digest (a cache-key version
// bump, a tampered envelope). The serving tier maps it to HTTP 409 with
// the machine-readable "stale_snapshot:" marker.
type StaleError struct {
	Digest string
	Reason string
}

func (e *StaleError) Error() string {
	return fmt.Sprintf("stale_snapshot: program %s: %s", progcache.ShortDigest(e.Digest), e.Reason)
}

// Pack builds a sealed envelope for a session suspended at a quiescent
// point. req is the session's original request; its memory images are
// stripped (the snapshot carries all architectural state) and its trace
// flag cleared. consumed is the cumulative simulated-cycle count across
// all segments, remaining the cycle budget left, every the session's
// periodic checkpoint cadence, and stats the folded statistics so far.
func Pack(sessionID string, req client.RunRequest, digest string, snapshot []byte,
	consumed, remaining, checkpoints, every int64, stats asc.Stats) *client.SnapshotEnvelope {

	env := &client.SnapshotEnvelope{
		Version:               Version,
		SessionID:             sessionID,
		Digest:                digest,
		ConfigKey:             progcache.ArchKey(req.Config.ASC()),
		Request:               stripped(req),
		Snapshot:              snapshot,
		ConsumedCycles:        consumed,
		RemainingCycles:       remaining,
		Checkpoints:           checkpoints,
		CheckpointEveryCycles: every,
		Stats:                 StatsToWire(stats),
	}
	Seal(env)
	return env
}

// stripped is req as an envelope carries it: without memory images and
// trace flag.
func stripped(req client.RunRequest) client.RunRequest {
	req.LocalMem = nil
	req.ScalarMem = nil
	req.Trace = false
	return req
}

// envelopeSlack bounds the bytes of a resume request body other than the
// stripped request and the snapshot's base64: the wrapper, keys, session
// id, digests, config key, and budget counters and folded statistics at
// their widest. TestResumeBytesBound checks it against such an envelope.
const envelopeSlack = 8 << 10

// ResumeBytes bounds the length of the resume request body
// ({"envelope": ...}) that carries any envelope of a session of req whose
// snapshot images are at most image bytes long (asc.Geometry's
// SnapshotBytes).
func ResumeBytes(req client.RunRequest, image int64) int64 {
	// A RunRequest has only strings, numbers and slices of them, so
	// encoding it cannot fail.
	data, _ := json.Marshal(stripped(req))
	return int64(len(data)) + (image+2)/3*4 + envelopeSlack
}

// Seal computes and stores the envelope's integrity digest over every
// field except Sum itself.
func Seal(env *client.SnapshotEnvelope) {
	env.Sum = ""
	env.Sum = sum(env)
}

// sum is the canonical envelope digest: SHA-256 of the JSON encoding with
// Sum cleared. Struct-field order makes Go's JSON encoding deterministic,
// so equal envelopes hash equally on every backend.
//
// The snapshot is most of an envelope, so the encoding is never built
// whole: the envelope is marshaled with Snapshot nil, and the hash reads
// that text with the snapshot's base64 (encoding/json's form of []byte)
// streamed in place of the null. The first `"snapshot":null` in the text
// is the envelope's own key: inside JSON strings quotes are escaped, and
// no field encoded before it has a key of that name. Hash writes never
// fail, so their errors are not checked.
func sum(env *client.SnapshotEnvelope) string {
	e := *env
	e.Sum = ""
	e.Snapshot = nil
	data, err := json.Marshal(&e)
	h := sha256.New()
	switch {
	case err != nil:
		// Only unmarshalable field types could trip this, and the envelope
		// has none; hash the error text so the sum still never matches.
		h.Write([]byte(err.Error()))
	case env.Snapshot == nil:
		h.Write(data)
	default:
		i := bytes.Index(data, snapshotNull) + len(snapshotNull) - len("null")
		h.Write(data[:i])
		h.Write([]byte{'"'})
		b64 := base64.NewEncoder(base64.StdEncoding, h)
		b64.Write(env.Snapshot)
		b64.Close()
		h.Write([]byte{'"'})
		h.Write(data[i+len("null"):])
	}
	return hex.EncodeToString(h.Sum(nil))
}

var snapshotNull = []byte(`"snapshot":null`)

// Verify checks the envelope's integrity digest. Envelopes sealed by older
// peers without a Sum are accepted (the field is optional on the wire);
// a present-but-wrong Sum is a hard failure.
func Verify(env *client.SnapshotEnvelope) error {
	if env.Sum == "" {
		return nil
	}
	if got := sum(env); got != env.Sum {
		return fmt.Errorf("envelope integrity digest mismatch: body hashes to %s, sum says %s",
			progcache.ShortDigest(got), progcache.ShortDigest(env.Sum))
	}
	return nil
}

// Validate rejects structurally broken envelopes before any cache or
// machine state is consulted: integrity digest, schema version, program
// digest shape, config-key agreement with the embedded request, snapshot
// image header, and a positive remaining budget. An image of another
// format version is a StaleError. It does not resolve the program
// (Resolve) or check machine-fingerprint compatibility (Restore).
func Validate(env *client.SnapshotEnvelope) error {
	if env == nil {
		return fmt.Errorf("missing envelope")
	}
	if err := Verify(env); err != nil {
		return err
	}
	if env.Version != Version {
		return fmt.Errorf("unsupported envelope version %d (want %d)", env.Version, Version)
	}
	if env.SessionID == "" {
		return fmt.Errorf("envelope has no session id")
	}
	if !progcache.ValidDigest(env.Digest) {
		return fmt.Errorf("malformed program digest %q", progcache.ShortDigest(env.Digest))
	}
	if want := progcache.ArchKey(env.Request.Config.ASC()); env.ConfigKey != want {
		return fmt.Errorf("envelope config key %q does not match its request config %q", env.ConfigKey, want)
	}
	if len(env.Request.LocalMem) != 0 || len(env.Request.ScalarMem) != 0 {
		return fmt.Errorf("envelope request carries memory images (the snapshot owns all state)")
	}
	if _, err := machine.InspectSnapshot(env.Snapshot); errors.Is(err, machine.ErrSnapshotVersion) {
		return &StaleError{Digest: env.Digest, Reason: fmt.Sprintf("snapshot image cannot be restored by this build (%v); resubmit from source", err)}
	} else if err != nil {
		return err
	}
	if env.RemainingCycles < 1 {
		return fmt.Errorf("envelope has no remaining cycle budget (%d)", env.RemainingCycles)
	}
	return nil
}

// Resolve returns the compiled program the envelope's snapshot was taken
// under, and whether it came from the cache. On a cache miss it re-derives
// the digest from the embedded source: a match means the artifact was
// merely evicted, so compile() rebuilds it (byte-identical by
// construction) and the result is re-cached under the same digest; a
// mismatch — or an envelope with no source — is a StaleError. compile is
// only invoked on the legitimate re-compile path.
func Resolve(cache *progcache.Cache, env *client.SnapshotEnvelope,
	compile func() (progcache.Program, error)) (progcache.Program, bool, error) {

	if art, ok := cache.Get(env.Digest); ok {
		return art, true, nil
	}
	if env.Request.ASCL == "" && env.Request.Asm == "" {
		return progcache.Program{}, false, &StaleError{Digest: env.Digest,
			Reason: "evicted from the program cache and the envelope carries no source"}
	}
	want := progcache.RequestDigest(env.Request.ASCL, env.Request.Asm, env.Request.Config.ASC())
	if want != env.Digest {
		return progcache.Program{}, false, &StaleError{Digest: env.Digest,
			Reason: fmt.Sprintf("source now compiles under digest %s (cache-key version changed?); refusing silent recompute",
				progcache.ShortDigest(want))}
	}
	art, err := compile()
	if err != nil {
		return progcache.Program{}, false, err
	}
	cache.Put(env.Digest, art)
	return art, false, nil
}

// StatsToWire converts simulator statistics to the envelope's JSON shape.
func StatsToWire(s asc.Stats) client.SimStats {
	return client.SimStats{
		Cycles:       s.Cycles,
		Instructions: s.Instructions,
		ScalarOps:    s.Scalar,
		ParallelOps:  s.Parallel,
		ReductionOps: s.Reduction,
		IdleCycles:   s.IdleCycles,
		IdleByCause:  copyCauses(s.IdleByCause),
		StallByCause: copyCauses(s.StallByCause),
		Contention:   s.Contention,
		Fetches:      s.Fetches,
		Flushes:      s.Flushes,
		PerThread:    append([]int64(nil), s.PerThread...),
	}
}

// StatsFromWire is the inverse of StatsToWire: the resuming server seeds
// its accounting from the envelope so a migrated session's merged stats
// equal an uninterrupted run's.
func StatsFromWire(s client.SimStats) asc.Stats {
	return asc.Stats{
		Cycles:       s.Cycles,
		Instructions: s.Instructions,
		Scalar:       s.ScalarOps,
		Parallel:     s.ParallelOps,
		Reduction:    s.ReductionOps,
		IdleCycles:   s.IdleCycles,
		IdleByCause:  copyCauses(s.IdleByCause),
		StallByCause: copyCauses(s.StallByCause),
		Contention:   s.Contention,
		Fetches:      s.Fetches,
		Flushes:      s.Flushes,
		PerThread:    append([]int64(nil), s.PerThread...),
	}
}

func copyCauses(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
