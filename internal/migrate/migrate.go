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
//   - Validate first checks the schema version: an envelope of another
//     version is a StaleError, since its Sum is defined differently.
//   - Seal/Verify: the envelope's own integrity digest (Sum) detects
//     corruption or tampering in transit. Sum is required: an envelope
//     without one is refused like one whose Sum does not match.
//   - Validate then checks digest shape, config-key agreement, the
//     fields Pack never mints (memory images, a trace flag, negative
//     counters), and the snapshot image's header (magic), rejecting
//     structurally broken envelopes. An image in another format version
//     is a StaleError.
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
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	asc "repro"
	"repro/client"
	"repro/internal/machine"
	"repro/internal/progcache"
	"repro/internal/wire"
)

// Version is the snapshot-envelope schema version this package mints and
// accepts. Version 2 hashes the raw snapshot image into Sum (see sum);
// version 1 hashed its base64 text.
const Version = 2

// StaleError reports an envelope that can no longer be honored: it is of
// another envelope version, its snapshot image is in a format version
// this build does not restore, or its program artifact was evicted from
// the cache and the embedded source is missing or no longer compiles to
// the same digest (a cache-key version bump, a tampered envelope). The
// serving tier maps it to HTTP 409 with the machine-readable
// "stale_snapshot:" marker.
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
	data, _ := wire.Marshal(stripped(req))
	return int64(len(data)) + (image+2)/3*4 + envelopeSlack
}

// Seal computes and stores the envelope's integrity digest over every
// field except Sum itself.
func Seal(env *client.SnapshotEnvelope) {
	env.Sum = ""
	env.Sum = sum(env)
}

// sum is the canonical envelope digest: SHA-256 over the JSON encoding
// of the envelope with Sum empty and Snapshot null, then the snapshot's
// length as 8 little-endian bytes, then the snapshot's raw bytes.
// Struct-field order makes Go's JSON encoding deterministic, so equal
// envelopes hash equally on every backend. The image, most of an
// envelope, is hashed as it is, never re-encoded; the length keeps the
// JSON text and the image apart. Hash writes never fail, so their errors
// are not checked.
func sum(env *client.SnapshotEnvelope) string {
	e := *env
	e.Sum = ""
	e.Snapshot = nil
	h := sha256.New()
	if data, err := wire.Marshal(&e); err != nil {
		// Only unmarshalable field types could trip this, and the envelope
		// has none; hash the error text so the sum still never matches.
		h.Write([]byte(err.Error()))
	} else {
		h.Write(data)
	}
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(env.Snapshot)))
	h.Write(n[:])
	h.Write(env.Snapshot)
	return hex.EncodeToString(h.Sum(nil))
}

// Verify checks the envelope's integrity digest. Sum is required: every
// envelope of this version is sealed when minted, so a missing Sum is a
// hard failure, like a wrong one; accepting it would let anyone strip the
// Sum and edit the envelope unchecked.
func Verify(env *client.SnapshotEnvelope) error {
	if env.Sum == "" {
		return errors.New("envelope has no integrity digest (sum)")
	}
	if got := sum(env); got != env.Sum {
		return fmt.Errorf("envelope integrity digest mismatch: body hashes to %s, sum says %s",
			progcache.ShortDigest(got), progcache.ShortDigest(env.Sum))
	}
	return nil
}

// Validate rejects structurally broken envelopes before any cache or
// machine state is consulted: schema version, integrity digest, program
// digest shape, config-key agreement with the embedded request, no memory
// images or trace flag in it, no negative counter or statistic, snapshot
// image header, and a positive remaining budget. The integrity digest is
// no authentication (any client can recompute it), so Validate itself
// refuses the field values Pack never mints. An envelope of another
// version, or an image of another format version, is a StaleError; the
// version comes first because another version's Sum is not this one's.
// It does not resolve the program (Resolve) or check machine-fingerprint
// compatibility (Restore).
func Validate(env *client.SnapshotEnvelope) error {
	if env == nil {
		return fmt.Errorf("missing envelope")
	}
	if env.Version != Version {
		return &StaleError{Digest: env.Digest, Reason: fmt.Sprintf(
			"unsupported envelope version %d (this build reads version %d); resubmit from source", env.Version, Version)}
	}
	if err := Verify(env); err != nil {
		return err
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
	if env.Request.Trace {
		return errors.New("envelope request asks for trace (sessions do not support trace)")
	}
	if err := counters(env); err != nil {
		return err
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

// counters refuses a negative budget counter or statistic: Pack mints
// none, and a resume would carry one into the session's result.
func counters(env *client.SnapshotEnvelope) error {
	st := env.Stats
	vals := append([]int64{env.ConsumedCycles, env.Checkpoints, env.CheckpointEveryCycles,
		st.Cycles, st.Instructions, st.ScalarOps, st.ParallelOps, st.ReductionOps,
		st.IdleCycles, st.Contention, st.Fetches, st.Flushes}, st.PerThread...)
	for _, causes := range []map[string]int64{st.IdleByCause, st.StallByCause} {
		for _, v := range causes {
			vals = append(vals, v)
		}
	}
	if slices.Min(vals) < 0 {
		return errors.New("envelope has a negative counter (consumedCycles, checkpoints, checkpointEveryCycles, or stats)")
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
