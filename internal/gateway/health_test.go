package gateway

import (
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// waitFor polls cond up to d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within %v", what, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckerEjectAndReadmit drives a backend through healthy -> failing
// -> ejected -> recovered -> re-admitted, watching the transitions land
// after the configured consecutive counts, not on the first blip.
func TestCheckerEjectAndReadmit(t *testing.T) {
	var failing atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	}))
	t.Cleanup(hs.Close)

	var mu sync.Mutex
	var transitions []bool
	c := newChecker(Config{
		Backends:        []string{hs.URL},
		HealthInterval:  20 * time.Millisecond,
		HealthTimeout:   100 * time.Millisecond,
		HealthFailAfter: 3,
		HealthRiseAfter: 2,
		Logger:          discardLogger(),
	}, func(name string, healthy bool) {
		mu.Lock()
		transitions = append(transitions, healthy)
		mu.Unlock()
	})
	go c.run()
	t.Cleanup(c.Stop)

	if !c.Healthy(hs.URL) || c.HealthyCount() != 1 {
		t.Fatal("backend must start healthy")
	}

	failing.Store(true)
	waitFor(t, 5*time.Second, "ejection", func() bool { return !c.Healthy(hs.URL) })

	failing.Store(false)
	waitFor(t, 5*time.Second, "re-admission", func() bool { return c.Healthy(hs.URL) })

	mu.Lock()
	defer mu.Unlock()
	if len(transitions) != 2 || transitions[0] || !transitions[1] {
		t.Fatalf("transitions = %v, want [false true]", transitions)
	}
}

// TestCheckerSingleBlipDoesNotEject: one failed probe among successes
// must not flap the backend out.
func TestCheckerSingleBlipDoesNotEject(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 2 {
			http.Error(w, "hiccup", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "ok\n")
	}))
	t.Cleanup(hs.Close)

	c := newChecker(Config{
		Backends:        []string{hs.URL},
		HealthInterval:  15 * time.Millisecond,
		HealthTimeout:   100 * time.Millisecond,
		HealthFailAfter: 3,
		HealthRiseAfter: 2,
		Logger:          discardLogger(),
	}, func(string, bool) {
		t.Error("transition fired for a single blip")
	})
	go c.run()
	t.Cleanup(c.Stop)

	waitFor(t, 5*time.Second, "several probes", func() bool { return calls.Load() >= 5 })
	if !c.Healthy(hs.URL) {
		t.Fatal("single blip ejected the backend")
	}
}

// TestReportFailure: proxy-observed transport failures count like failed
// probes, so traffic ejects a dead backend without waiting for probes.
func TestReportFailure(t *testing.T) {
	c := newChecker(Config{
		Backends:        []string{"http://127.0.0.1:1"},
		HealthInterval:  time.Hour, // probes effectively off; only reports drive state
		HealthFailAfter: 3,
		HealthRiseAfter: 2,
		Logger:          discardLogger(),
	}, func(string, bool) {})
	// No run(): drive entirely through ReportFailure.
	for i := 0; i < 2; i++ {
		c.ReportFailure("http://127.0.0.1:1", errors.New("connection refused"))
	}
	if !c.Healthy("http://127.0.0.1:1") {
		t.Fatal("ejected before FailAfter consecutive failures")
	}
	c.ReportFailure("http://127.0.0.1:1", errors.New("connection refused"))
	if c.Healthy("http://127.0.0.1:1") {
		t.Fatal("not ejected after FailAfter consecutive failures")
	}
	if c.HealthyCount() != 0 {
		t.Fatalf("HealthyCount = %d, want 0", c.HealthyCount())
	}
}
