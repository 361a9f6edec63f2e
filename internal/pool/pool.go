// Package pool maintains a fleet of warm asc.Processor instances keyed by
// machine configuration, so a stream of simulation requests that repeat
// configurations never pays processor construction cost (flat state file
// allocation) more than once per distinct config.
//
// The contract with the simulator that makes this safe is
// asc.Processor.Reset/SetProgram: a recycled machine is retargeted at the
// request's program and restored to power-on state, which is proven
// snapshot-identical to a fresh build (internal/machine reset tests). The
// pool therefore never leaks one request's state into the next — even when
// the previous run ended in a trap, a cycle-limit abort, or a cancellation.
//
// Pool is safe for concurrent use; the processors it hands out are not
// (each belongs to exactly one request at a time, mirroring the paper's
// single-front-end prototype).
package pool

import (
	"fmt"
	"sync"
	"time"

	asc "repro"
)

// Stats is a point-in-time snapshot of pool effectiveness counters for one
// machine configuration (see StatsByKey).
type Stats struct {
	Hits      int64 // Get satisfied by recycling a warm machine
	Misses    int64 // Get that had to construct a processor
	Evictions int64 // Put dropped because the idle cap was reached
	Idle      int   // machines currently parked in the pool
	// BuildNanos is the cumulative wall-clock time spent constructing
	// machines on misses — the cold-start cost the warm pool exists to
	// amortize. BuildNanos/Misses is the average price of a miss, which
	// the serving tier's traces and dashboards can weigh against observed
	// hit rates when sizing -pool-idle.
	BuildNanos int64
}

// Pool is the warm-machine fleet.
type Pool struct {
	mu      sync.Mutex
	maxIdle int
	// idle is the one shelf: solo processors park under Config.Key() and
	// gangs under gangKey, so the two kinds never share a key. A parked
	// gang occupies one idle slot regardless of lane count: the cap
	// bounds fleet entries, not simulated machines.
	idle  map[string][]machine
	nIdle int
	byKey map[string]*Stats // the only counters
}

// machine is what the shelf parks: an *asc.Processor or an *asc.Gang.
type machine interface {
	SetProgram(*asc.Program) error
}

// New builds a pool that parks at most maxIdle machines across all
// configurations (maxIdle <= 0 disables pooling: every Get constructs and
// every Put drops).
func New(maxIdle int) *Pool {
	return &Pool{
		maxIdle: maxIdle,
		idle:    make(map[string][]machine),
		byKey:   make(map[string]*Stats),
	}
}

// keyStatsLocked returns the per-key counter block, creating it on first
// use. Callers hold p.mu.
func (p *Pool) keyStatsLocked(key string) *Stats {
	s := p.byKey[key]
	if s == nil {
		s = &Stats{}
		p.byKey[key] = s
	}
	return s
}

// checkout pops a warm machine parked under key and retargets it at prog,
// or builds one on a miss, and then restores snapshot into it when one is
// given. A failed program load (e.g. a .data segment larger than scalar
// memory) or restore (an image of another machine) does not invalidate
// the machine: both validate before they mutate, so it is re-parked warm.
// A warm checkout that fails counts as neither a hit nor a miss; a built
// one keeps its miss, since the build cost was real.
func (p *Pool) checkout(key string, prog *asc.Program, snapshot []byte, build func() (machine, error)) (machine, bool, error) {
	var m machine
	p.mu.Lock()
	ms := p.idle[key]
	hit := len(ms) > 0
	if hit {
		m = ms[len(ms)-1]
		ms[len(ms)-1] = nil
		p.idle[key] = ms[:len(ms)-1]
		p.nIdle--
	} else {
		p.keyStatsLocked(key).Misses++
	}
	p.mu.Unlock()

	var err error
	if hit {
		err = m.SetProgram(prog)
	} else {
		start := time.Now()
		if m, err = build(); err != nil {
			return nil, false, err
		}
		p.mu.Lock()
		p.keyStatsLocked(key).BuildNanos += int64(time.Since(start))
		p.mu.Unlock()
	}
	if err == nil && snapshot != nil {
		err = m.(*asc.Processor).Restore(snapshot)
	}
	if err != nil {
		p.park(key, m)
		return nil, false, err
	}
	if hit {
		p.mu.Lock()
		p.keyStatsLocked(key).Hits++
		p.mu.Unlock()
	}
	return m, hit, nil
}

// park shelves a machine under key for reuse, or drops it when the idle
// cap is reached. The machine's state may be arbitrarily dirty; checkout
// cleans it on the way out.
func (p *Pool) park(key string, m machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nIdle >= p.maxIdle {
		p.keyStatsLocked(key).Evictions++
		return
	}
	p.idle[key] = append(p.idle[key], m)
	p.nIdle++
}

// Get returns a processor for cfg loaded with prog, and whether it was a
// pool hit. On a hit the warm machine is reset and retargeted; on a miss a
// processor is constructed. Either way the caller owns the processor until
// it calls Put.
func (p *Pool) Get(cfg asc.Config, prog *asc.Program) (*asc.Processor, bool, error) {
	return p.GetRestored(cfg, prog, nil)
}

// GetRestored is Get with an architectural snapshot restored into the
// checked-out machine, in the same checkout — the warm-pool entry point of
// every resume. The snapshot must have been taken from a machine with the
// same configuration and program (machine fingerprinting enforces this).
// A nil snapshot restores nothing.
func (p *Pool) GetRestored(cfg asc.Config, prog *asc.Program, snapshot []byte) (*asc.Processor, bool, error) {
	m, hit, err := p.checkout(cfg.Key(), prog, snapshot, func() (machine, error) { return asc.New(cfg, prog) })
	if err != nil {
		return nil, false, err
	}
	return m.(*asc.Processor), hit, nil
}

// Put parks a processor for reuse under the configuration it was built
// with. When the idle cap is reached the machine is dropped instead.
func (p *Pool) Put(proc *asc.Processor) { p.park(proc.Config().Key(), proc) }

// gangKey is the park/checkout key for gangs: the architectural key plus
// the lane count, since a gang's shared state planes are sized when built.
func gangKey(cfg asc.Config, lanes int) string {
	return fmt.Sprintf("%s|lanes=%d", cfg.Key(), lanes)
}

// GetGang returns a gang of the given lane count for cfg loaded with prog,
// and whether it was a pool hit — the Get analogue for the lockstep batch
// path. Hits and misses count in the same fleet statistics as solo
// checkouts, under the gang's composite key.
func (p *Pool) GetGang(cfg asc.Config, prog *asc.Program, lanes int) (*asc.Gang, bool, error) {
	m, hit, err := p.checkout(gangKey(cfg, lanes), prog, nil, func() (machine, error) { return asc.NewGang(cfg, prog, lanes) })
	if err != nil {
		return nil, false, err
	}
	return m.(*asc.Gang), hit, nil
}

// PutGang parks a gang for reuse, dropping it when the idle cap is reached,
// exactly like Put.
func (p *Pool) PutGang(g *asc.Gang) { p.park(gangKey(g.Config(), g.Lanes()), g) }

// StatsByKey returns a snapshot of the counters per machine-configuration
// key (asc.Config.Key(), or a gang's composite key), with Idle filled from
// the current parked count. The serving layer exports these as labeled
// fleet metrics.
func (p *Pool) StatsByKey() map[string]Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]Stats, len(p.byKey))
	for key, s := range p.byKey {
		ks := *s
		ks.Idle = len(p.idle[key])
		out[key] = ks
	}
	return out
}
