package gateway

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// healthMaxBackoff caps the probe interval for an ejected backend: after
// ejection the interval doubles per failed probe up to this, so a
// long-dead node costs almost nothing to keep watching.
const healthMaxBackoff = 30 * time.Second

// backendHealth is one backend's probe state.
type backendHealth struct {
	healthy  bool
	fails    int // consecutive probe failures while healthy
	rises    int // consecutive probe successes while ejected
	backoff  time.Duration
	nextDue  time.Time
	lastErr  string
	lastSeen time.Time // last successful probe
}

// checker drives /healthz probes for every backend, maintaining the
// healthy set the router picks from. A backend is ejected after
// HealthFailAfter consecutive failures — a refused connection, a timeout,
// or any non-200 (a draining ascd answers 503 "draining", which must stop
// routing as fast as a dead node does) — and re-admitted after
// HealthRiseAfter consecutive successes. Proxy-observed transport
// failures feed in as probe failures too (ReportFailure), so a crashed
// backend is usually ejected by the very traffic that discovered it, not
// the next probe tick.
type checker struct {
	cfg      Config
	client   *http.Client
	onChange func(name string, healthy bool)

	mu    sync.Mutex
	state map[string]*backendHealth

	stop chan struct{}
	done chan struct{}
}

// newChecker builds a checker for cfg.Backends (base URLs, e.g.
// "http://10.0.0.7:8642") from cfg's Health fields, with defaults filled.
// Backends start healthy — the fleet must serve before the first probe
// round lands — and onChange fires on every health transition.
func newChecker(cfg Config, onChange func(string, bool)) *checker {
	c := &checker{
		cfg:      cfg,
		client:   &http.Client{Timeout: cfg.HealthTimeout},
		onChange: onChange,
		state:    make(map[string]*backendHealth, len(cfg.Backends)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	now := time.Now()
	for _, b := range cfg.Backends {
		c.state[b] = &backendHealth{healthy: true, backoff: cfg.HealthInterval, nextDue: now}
	}
	return c
}

// run probes due backends until Stop. One goroutine suffices: probes are
// issued concurrently per round, and the tick is far coarser than a
// probe.
func (c *checker) run() {
	defer close(c.done)
	tick := time.NewTicker(c.cfg.HealthInterval / 4)
	defer tick.Stop()
	for {
		c.probeDue()
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
	}
}

// Stop halts probing and waits for the in-flight round.
func (c *checker) Stop() {
	close(c.stop)
	<-c.done
}

// probeDue issues one probe to every backend whose next probe is due.
func (c *checker) probeDue() {
	now := time.Now()
	var due []string
	c.mu.Lock()
	for name, st := range c.state {
		if !now.Before(st.nextDue) {
			st.nextDue = now.Add(c.cfg.HealthInterval) // re-armed properly on completion
			due = append(due, name)
		}
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, name := range due {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			c.record(name, c.probe(name))
		}(name)
	}
	wg.Wait()
}

// probe is one GET /healthz; nil means the backend is serving.
func (c *checker) probe(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &probeStatusError{status: resp.StatusCode}
	}
	return nil
}

type probeStatusError struct{ status int }

func (e *probeStatusError) Error() string {
	return http.StatusText(e.status) + " from /healthz"
}

// record folds one probe outcome into the backend's state, firing
// onChange on transitions and scheduling the next probe (backed off for
// ejected backends).
func (c *checker) record(name string, err error) {
	var transition *bool
	c.mu.Lock()
	st, ok := c.state[name]
	if !ok {
		c.mu.Unlock()
		return
	}
	now := time.Now()
	if err == nil {
		st.lastErr, st.lastSeen = "", now
		st.fails = 0
		st.backoff = c.cfg.HealthInterval
		if !st.healthy {
			st.rises++
			if st.rises >= c.cfg.HealthRiseAfter {
				st.healthy, st.rises = true, 0
				t := true
				transition = &t
			}
		}
		st.nextDue = now.Add(c.cfg.HealthInterval)
	} else {
		st.lastErr = err.Error()
		st.rises = 0
		if st.healthy {
			st.fails++
			if st.fails >= c.cfg.HealthFailAfter {
				st.healthy, st.fails = false, 0
				f := false
				transition = &f
			}
			st.nextDue = now.Add(c.cfg.HealthInterval)
		} else {
			// Ejected: back the probe interval off exponentially so a
			// long-dead backend is cheap to watch, but never stop watching.
			st.backoff *= 2
			if st.backoff > healthMaxBackoff {
				st.backoff = healthMaxBackoff
			}
			st.nextDue = now.Add(st.backoff)
		}
	}
	c.mu.Unlock()
	if transition != nil {
		if *transition {
			c.cfg.Logger.Info("backend re-admitted", "backend", name)
		} else {
			c.cfg.Logger.Warn("backend ejected", "backend", name, "error", err.Error())
		}
		c.onChange(name, *transition)
	}
}

// ReportFailure feeds a proxy-observed transport failure into the health
// state, counting it like a failed probe. Backend HTTP responses — even
// 5xx — do not come through here: a serving backend that answers 503 is
// making a load statement, and the periodic probe is the authority on
// whether it is drowning or draining.
func (c *checker) ReportFailure(name string, err error) {
	c.record(name, err)
}

// Healthy reports whether the backend is currently in the routable set.
func (c *checker) Healthy(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[name]
	return ok && st.healthy
}

// HealthyCount returns how many backends are currently routable.
func (c *checker) HealthyCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, st := range c.state {
		if st.healthy {
			n++
		}
	}
	return n
}
