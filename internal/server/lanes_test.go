package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// TestLanesAgree runs one program with memory images through every lane
// ascd has: /v1/run, a batch single, a gang lane, a forced-peel lane, a
// non-resumable session, and a resumable session checkpointed mid-run and
// resumed on a second server. Memory dumps are bit-identical to /v1/run's
// on every lane, and every lane but the resumed session matches its
// statistics too, the peeled gang lane included. The resumed lane is held
// to what TestSessionCheckpointResumeCrossServer asserts for it.
func TestLanesAgree(t *testing.T) {
	_, c, urlA := newSessionTestServer(t, server.Config{Workers: 2})
	_, cb, _ := newSessionTestServer(t, server.Config{Workers: 2})
	ctx := context.Background()

	// Scalar word 0 picks a branch, so a lane with a different word
	// diverges from its gang and peels; word 1 sizes the run so a
	// checkpoint lands mid-run.
	job := func(sel int64) client.RunRequest {
		return client.RunRequest{
			ASCL: `
				scalar sel = read(0);
				scalar n = read(1);
				scalar acc = 0;
				if (sel > 0) {
					acc = 1000;
				}
				parallel v = pread(0) + idx();
				while (n > 0) {
					acc = acc + sumval(v);
					n = n - 1;
				}
				write(2, acc);
				pwrite(1, v + acc);
			`,
			Config:     client.MachineConfig{PEs: 8, Width: 32},
			LocalMem:   [][]int64{{3}, {1}, {4}, {1}, {5}, {9}, {2}, {6}},
			ScalarMem:  []int64{sel, 150_000},
			DumpScalar: 3,
			DumpLocal:  2,
		}
	}
	run := func(req client.RunRequest) *client.RunResult {
		t.Helper()
		res, err := c.Run(ctx, req)
		if err != nil {
			t.Fatalf("/v1/run: %v", err)
		}
		return res
	}
	want, wantPeel := run(job(0)), run(job(1))

	sameMem := func(lane string, got, want *client.RunResult) {
		t.Helper()
		if got == nil {
			t.Fatalf("%s: no result", lane)
		}
		a, _ := json.Marshal([]any{got.ScalarMem, got.LocalMem})
		b, _ := json.Marshal([]any{want.ScalarMem, want.LocalMem})
		if string(a) != string(b) {
			t.Errorf("%s: memory dump %s, /v1/run %s", lane, a, b)
		}
	}
	sameStats := func(lane string, got, want *client.RunResult) {
		t.Helper()
		sameMem(lane, got, want)
		if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
			got.ScalarOps != want.ScalarOps || got.ParallelOps != want.ParallelOps ||
			got.ReductionOps != want.ReductionOps {
			t.Errorf("%s: stats %+v, /v1/run %+v", lane, got, want)
		}
	}
	batch := func(jobs ...client.RunRequest) []client.BatchJobResult {
		t.Helper()
		res, err := c.RunBatch(ctx, client.BatchRequest{Jobs: jobs})
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		return res.Jobs
	}

	sameStats("batch single", batch(job(0))[0].Result, want)

	gang := batch(job(0), job(0), job(1))
	sameStats("gang lane", gang[0].Result, want)
	sameStats("peeled lane", gang[2].Result, wantPeel)
	_, body := httpGet(t, urlA+"/metrics", nil)
	if v := counterValue(t, body, "asc_gang_divergence_peels_total"); v < 1 {
		t.Errorf("asc_gang_divergence_peels_total = %v, want >= 1 (the peel lane did not peel)", v)
	}

	digested := job(0)
	digested.StateDigest = true
	resp, raw := postJSON(t, urlA+"/v1/sessions", client.SessionRequest{RunRequest: digested})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-resumable session: status %d: %s", resp.StatusCode, raw)
	}
	var plain client.SessionResult
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	sameStats("non-resumable session", plain.Result, want)

	// Resumable: run on A, checkpoint mid-flight, resume on B.
	sess := c.NewSession(digested)
	done := make(chan error, 1)
	go func() {
		_, err := sess.Run(ctx)
		done <- err
	}()
	sid := waitRunningSession(t, urlA)
	if resp, body := postJSON(t, urlA+"/v1/sessions/"+sid+"/checkpoint", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d: %s", resp.StatusCode, body)
	}
	if err := <-done; !errors.Is(err, client.ErrSessionSuspended) {
		t.Fatalf("checkpointed run returned %v, want ErrSessionSuspended", err)
	}
	resumed, err := cb.ResumeSession(sess.Envelope()).Resume(ctx)
	if err != nil {
		t.Fatalf("resume on B: %v", err)
	}
	got := resumed.Result
	sameMem("resumed session", got, want)
	if resumed.StateDigest != plain.StateDigest {
		t.Errorf("resumed state digest %s, uninterrupted %s", resumed.StateDigest, plain.StateDigest)
	}
	if d := got.Cycles - want.Cycles; d < -16 || d > 16 {
		t.Errorf("resumed cycles %d, want %d ±16", got.Cycles, want.Cycles)
	}
	if got.Instructions != want.Instructions || got.ScalarOps != want.ScalarOps ||
		got.ParallelOps != want.ParallelOps || got.ReductionOps != want.ReductionOps {
		t.Errorf("resumed instruction mix %+v, /v1/run %+v", got, want)
	}
}

// TestLanesIsolated pins the isolation docs/SERVER.md promises: a full
// batch lane neither blocks /v1/run nor sessions, its rejections count
// against the batch lane only, and Shutdown waits for a job in every lane.
func TestLanesIsolated(t *testing.T) {
	s := server.New(server.Config{Workers: 1, QueueDepth: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	// Two spinners fill the batch lane: one slot plus one queued job.
	batchDone := make(chan error, 1)
	go func() {
		_, err := c.RunBatch(ctx, client.BatchRequest{Jobs: []client.RunRequest{spinRequest(1500), spinRequest(1500)}})
		batchDone <- err
	}()
	waitGauge := func(name string, want float64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			_, body := httpGet(t, hs.URL+"/metrics", nil)
			if counterValue(t, body, name) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %v", name, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitGauge("asc_batch_running_jobs", 2)

	if _, err := c.Run(ctx, sumFast()); err != nil {
		t.Errorf("/v1/run beside a full batch lane: %v", err)
	}
	if resp, body := postJSON(t, hs.URL+"/v1/sessions", client.SessionRequest{RunRequest: sumFast()}); resp.StatusCode != http.StatusOK {
		t.Errorf("session beside a full batch lane: status %d: %s", resp.StatusCode, body)
	}
	resp, body := postBatch(t, hs.URL, client.BatchRequest{Jobs: []client.RunRequest{sumFast()}})
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "batch lane full") {
		t.Errorf("batch into a full lane: status %d: %s, want 429 batch lane full", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", resp.Header.Get("Retry-After"))
	}
	_, m := httpGet(t, hs.URL+"/metrics", nil)
	if v := counterValue(t, m, "asc_batch_rejected_total"); v != 1 {
		t.Errorf("asc_batch_rejected_total = %v, want 1", v)
	}
	// A series that was never touched may be absent: that reads as 0.
	if runRejected := `asc_jobs_total{outcome="rejected"}`; strings.Contains(m, runRejected+" ") {
		if v := counterValue(t, m, runRejected); v != 0 {
			t.Errorf("%s = %v, want 0: a batch rejection leaked into the run lane", runRejected, v)
		}
	}

	// One spinner in each of the other lanes, then Shutdown: it returns
	// only once every lane is empty.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.Run(ctx, spinRequest(600))
	}()
	spinSession, _ := json.Marshal(client.SessionRequest{RunRequest: spinRequest(600)})
	go func() {
		defer wg.Done()
		if resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", bytes.NewReader(spinSession)); err == nil {
			resp.Body.Close()
		}
	}()
	waitGauge("asc_running_jobs", 1)
	waitGauge("asc_sessions_live", 1)
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	_, m = httpGet(t, hs.URL+"/metrics", nil)
	for _, g := range []string{"asc_running_jobs", "asc_batch_running_jobs", "asc_sessions_live"} {
		if v := counterValue(t, m, g); v != 0 {
			t.Errorf("%s = %v after Shutdown returned, want 0", g, v)
		}
	}
	wg.Wait()
	if err := <-batchDone; err != nil {
		t.Errorf("filler batch: %v", err)
	}
}
