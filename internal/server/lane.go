package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/obs"
	"repro/internal/wire"
)

// lane is one admission lane: a bound on admitted, unfinished jobs over a
// fixed set of execution slots. /v1/run, the batch lane, and the session
// lane are three instances that differ only in their queue allowance and
// reject texts. They stay separate so that no lane can starve another.
//
// A job's life in a lane is admit (charge it, or refuse), slot (wait for
// an execution slot), free (return the slot), release (discharge it). A
// gang group takes one slot for all of its lanes.
type lane struct {
	srv      *Server
	noun     string       // log subject: "job", "batch", "session"
	full     string       // 429 text prefix
	rejected *obs.Counter // counts 429 and 503 refusals
	slots    chan struct{}
	limit    int64
	inflight atomic.Int64 // admitted, unfinished jobs
}

// newLane builds a lane with Workers slots that admits queue jobs beyond
// them.
func (s *Server) newLane(noun, full string, rejected *obs.Counter, queue int) *lane {
	return &lane{
		srv:      s,
		noun:     noun,
		full:     full,
		rejected: rejected,
		slots:    make(chan struct{}, s.cfg.Workers),
		limit:    int64(s.cfg.Workers + queue),
	}
}

// admit charges n jobs against the lane under the drain guard and records
// the admission span. It refuses with 503 while the server drains and 429
// when the charge would pass the lane's limit, both with a Retry-After
// hint, and then returns false. On true the caller returns the n charges
// with release as its jobs finish.
func (l *lane) admit(w http.ResponseWriter, tr *dtrace.Active, log *slog.Logger, n int64) bool {
	start := time.Now()
	ok, draining, cur := l.srv.sh.Gate.Admit(&l.inflight, n, l.limit)
	switch {
	case draining:
		log.Warn(l.noun+" rejected", "reason", "draining")
		l.reject(w, tr, start, "draining", http.StatusServiceUnavailable, "server is draining")
	case !ok:
		log.Warn(l.noun+" rejected", "reason", l.full, "inflight", cur, "jobs", n, "cap", l.limit)
		l.reject(w, tr, start, "lane_full", http.StatusTooManyRequests,
			fmt.Sprintf("%s (%d jobs in flight, cap %d)", l.full, cur, l.limit))
	default:
		tr.Record("admission", nil, start, time.Now(), dtrace.Str("outcome", "admitted"), dtrace.Int("jobs", n))
	}
	return ok
}

func (l *lane) reject(w http.ResponseWriter, tr *dtrace.Active, start time.Time, outcome string, status int, msg string) {
	l.rejected.Inc()
	tr.Record("admission", nil, start, time.Now(), dtrace.Str("outcome", outcome))
	tr.SetError()
	w.Header().Set("Retry-After", strconv.Itoa(l.srv.retryAfterSeconds()))
	wire.WriteError(w, status, "%s", msg)
}

// slot waits for one execution slot and records the wait as the
// queue_wait span under ctx's current span. It returns false, holding
// nothing, when ctx ends first. The caller returns the slot with free.
func (l *lane) slot(ctx context.Context, log *slog.Logger) bool {
	start := time.Now()
	select {
	case l.slots <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	tr, parent := dtrace.FromContext(ctx)
	tr.Record("queue_wait", parent, start, time.Now(), dtrace.Int("queue_depth", l.waiting()))
	log.Debug("job started", "queue_wait", time.Since(start).String())
	return true
}

// free returns an execution slot.
func (l *lane) free() { <-l.slots }

// release discharges n finished jobs.
func (l *lane) release(n int64) { l.srv.sh.Gate.Done(&l.inflight, n) }

// waiting is the number of admitted jobs not holding a slot. It is exact
// for lanes that take one slot per job.
func (l *lane) waiting() int64 {
	return max(l.inflight.Load()-int64(len(l.slots)), 0)
}

// retryAfterSeconds derives the Retry-After hint for 429/503 responses
// from current load: roughly how many slot-rounds of /v1/run and batch
// jobs are already waiting, clamped to [1s, 60s]. It is a hint, not a
// promise — the client backoff treats it as a floor.
func (s *Server) retryAfterSeconds() int {
	waiting := s.runLane.waiting() + s.batchLane.inflight.Load()
	return int(min(1+waiting/int64(s.cfg.Workers), 60))
}
