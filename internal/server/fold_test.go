package server_test

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"repro/client"
	"repro/internal/server"
)

// simTotals reads the active-thread observation count and the simulated
// cycle total from a server's exposition.
func simTotals(t *testing.T, url string) (observed, cycles float64) {
	t.Helper()
	_, body := httpGet(t, url+"/metrics", nil)
	return counterValue(t, body, "asc_sim_active_threads_count"), counterValue(t, body, "asc_sim_cycles_total")
}

// TestSessionResumeFoldsOnce: a session suspended by a checkpoint and
// resumed on the same server is one job. It is observed once, where it
// finishes, and the simulated cycle total grows by its merged Cycles:
// each segment folds what it ran up to its boundary.
func TestSessionResumeFoldsOnce(t *testing.T) {
	_, c, url := newSessionTestServer(t, server.Config{Workers: 2})
	obs0, cyc0 := simTotals(t, url)

	req, want := longSession(150_000)
	sess := c.NewSession(req)
	done := make(chan error, 1)
	go func() {
		_, err := sess.Run(context.Background())
		done <- err
	}()
	sid := waitRunningSession(t, url)
	if resp, body := postJSON(t, url+"/v1/sessions/"+sid+"/checkpoint", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d: %s", resp.StatusCode, body)
	}
	if err := <-done; !errors.Is(err, client.ErrSessionSuspended) {
		t.Fatalf("interrupted run returned %v, want ErrSessionSuspended", err)
	}
	if obs, _ := simTotals(t, url); obs != obs0 {
		t.Errorf("a suspension added %v active-thread observations, want 0", obs-obs0)
	}

	res, err := c.ResumeSession(sess.Envelope()).Resume(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.State != "completed" || res.Result == nil || res.Result.ScalarMem[0] != want {
		t.Fatalf("resumed session %+v, want completed with %d", res, want)
	}
	obs, cyc := simTotals(t, url)
	if obs-obs0 != 1 {
		t.Errorf("asc_sim_active_threads grew by %v observations, want 1", obs-obs0)
	}
	if got := int64(cyc - cyc0); got != res.Result.Cycles {
		t.Errorf("asc_sim_cycles_total grew by %d, want the merged %d", got, res.Result.Cycles)
	}
}
