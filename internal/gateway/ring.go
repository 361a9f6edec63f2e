// Package gateway implements ascgw's serving core: an HTTP front tier
// that speaks the frozen v1 wire contract (docs/API.md) and routes
// /v1/run and /v1/batch across a fleet of ascd backends.
//
// The routing transplants the repo's locality story to the fleet layer.
// A single ascd gets fast by reuse: warm machines keyed by Config.Key()
// (internal/pool), compiled programs keyed by content digest
// (internal/progcache), and same-program batches executed as lockstep
// gangs. Scale-out would destroy all three if jobs sprayed randomly
// across nodes, so the gateway consistent-hashes each job's
// (program digest, Config.Key()) onto a ring of backends: repeat traffic
// for one kernel+geometry keeps landing on the node that already holds
// its program and machines, and batches are split by digest group before
// routing so same-program jobs still arrive somewhere gangable. A
// bounded-load check spills hot keys to the next ring replica instead of
// melting one node, health checks eject dead backends (keys move to
// their ring successor, everything else stays put), and a fleet-wide
// /metrics merges every backend's registry behind one scrape.
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring over named backends. Each backend owns
// Replicas virtual points on a 64-bit circle; a key routes to the first
// point clockwise of its hash. Membership changes move only the keys
// whose owning arc changed — about 1/N of them per backend added or
// removed — which is exactly the property that keeps the fleet's program
// caches and warm pools hot through scale-out and failure.
type Ring struct {
	replicas int

	mu     sync.RWMutex
	points []ringPoint // sorted by hash
	member map[string]bool
}

type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing builds an empty ring with the given virtual points per backend
// (<= 0 takes the default 128, enough to balance a small fleet to within
// a few percent).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = 128
	}
	return &Ring{replicas: replicas, member: map[string]bool{}}
}

// ringHash positions a string on the circle. SHA-256 (truncated) rather
// than a fast non-crypto hash: routing keys are content digests supplied
// by clients, and a keyed-collision-resistant hash keeps an adversarial
// client from constructing keys that all land on one backend's arc.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a backend's virtual points. Adding an existing member is a
// no-op.
func (r *Ring) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[name] {
		return
	}
	r.member[name] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash:  ringHash(fmt.Sprintf("%s#%d", name, i)),
			owner: name,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Preference returns every member backend in ring order for key: the
// owner first, then each successive distinct backend walking clockwise.
// It is the retry order for the key — replica i+1 is where the key's
// traffic lands if replica i is unhealthy or over the load bound — so
// repeated failovers of one key always converge on the same node instead
// of scattering.
func (r *Ring) Preference(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.member))
	seen := make(map[string]bool, len(r.member))
	for i := 0; i < len(r.points) && len(out) < len(r.member); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.owner] {
			seen[p.owner] = true
			out = append(out, p.owner)
		}
	}
	return out
}

// PickBounded selects the first backend in prefs whose current load fits
// the bounded-load rule of consistent hashing with bounded loads
// (Mirrokni et al.): a backend may take a new request only while its
// in-flight count stays at or under ceil(factor * (total+1) / n), where n
// is the number of candidates. With factor c > 1 at least one candidate
// is always under the bound, so the walk terminates at a real backend —
// hot keys spill to their next replica instead of hot-spotting, and cold
// keys never move at all. It reports whether the pick spilled past the
// key's first-preference owner. Empty prefs yield "".
func PickBounded(prefs []string, load func(string) int64, factor float64) (string, bool) {
	if len(prefs) == 0 {
		return "", false
	}
	if factor <= 1 {
		factor = 1.25
	}
	var total int64
	for _, b := range prefs {
		total += load(b)
	}
	bound := int64(math.Ceil(factor * float64(total+1) / float64(len(prefs))))
	for i, b := range prefs {
		if load(b)+1 <= bound {
			return b, i > 0
		}
	}
	// Loads moved under our feet (they are read racily by design); the
	// owner is the consistent fallback.
	return prefs[0], false
}
