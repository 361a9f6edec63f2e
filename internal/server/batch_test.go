package server_test

import (
	"context"
	"encoding/json"
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

// postBatch submits a batch with a raw HTTP POST so tests can inspect
// status codes and headers the typed client hides.
func postBatch(t *testing.T, base string, req client.BatchRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	return resp, raw
}

// TestBatchBitIdenticalToSequential is the acceptance criterion: a batch
// of N jobs returns results bit-identical to N sequential /v1/run calls.
func TestBatchBitIdenticalToSequential(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 4})
	ctx := context.Background()

	jobs := make([]client.RunRequest, 6)
	wants := make([]*client.RunResult, len(jobs))
	for i := range jobs {
		vals := make([]int64, 8)
		for pe := range vals {
			vals[pe] = int64(i*100 + pe)
		}
		req, _ := sumRequest(vals)
		req.Config.PEs = len(vals)
		jobs[i] = req
		res, err := c.Run(ctx, req)
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
		wants[i] = res
	}

	batch, err := c.RunBatch(ctx, client.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Completed != len(jobs) || batch.Failed != 0 || batch.Canceled != 0 {
		t.Fatalf("tally = %d/%d/%d, want %d/0/0", batch.Completed, batch.Failed, batch.Canceled, len(jobs))
	}
	for i, jr := range batch.Jobs {
		if jr.Result == nil {
			t.Fatalf("job %d: no result (error %q)", i, jr.Error)
		}
		got, want := jr.Result, wants[i]
		// Architectural outputs must match bit for bit; PoolHit and
		// ProgramCacheHit are host-side serving state and may differ.
		if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
			got.IPC != want.IPC || got.ScalarOps != want.ScalarOps ||
			got.ParallelOps != want.ParallelOps || got.ReductionOps != want.ReductionOps ||
			got.IdleCycles != want.IdleCycles || got.Asm != want.Asm {
			t.Errorf("job %d: batch stats diverge from sequential run:\nbatch: %+v\nseq:   %+v", i, got, want)
		}
		if len(got.ScalarMem) != len(want.ScalarMem) {
			t.Fatalf("job %d: scalar dump length %d != %d", i, len(got.ScalarMem), len(want.ScalarMem))
		}
		for w := range got.ScalarMem {
			if got.ScalarMem[w] != want.ScalarMem[w] {
				t.Errorf("job %d word %d: batch %d != sequential %d", i, w, got.ScalarMem[w], want.ScalarMem[w])
			}
		}
	}
}

// TestBatchProgramCacheHits checks a batch of N jobs sharing one program
// compiles at most once: cache hits >= N-1, visible per result and in the
// exposition (the acceptance criterion's asc_program_cache_hits_total).
func TestBatchProgramCacheHits(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 4})
	const n = 8
	jobs := make([]client.RunRequest, n)
	for i := range jobs {
		req, _ := sumRequest([]int64{int64(i), 2, 3, 4}) // same program, different data
		jobs[i] = req
	}
	batch, err := c.RunBatch(context.Background(), client.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, jr := range batch.Jobs {
		if jr.Result == nil {
			t.Fatalf("job %d failed: %s", i, jr.Error)
		}
		if jr.Result.ProgramCacheHit {
			hits++
		}
	}
	if hits < n-1 {
		t.Errorf("program cache hits = %d, want >= %d", hits, n-1)
	}
	_, body := httpGet(t, c.BaseURL+"/metrics", nil)
	for _, probe := range []string{"asc_program_cache_hits_total ", "asc_program_cache_entries 1"} {
		if !strings.Contains(body, probe) {
			t.Errorf("exposition missing %q", probe)
		}
	}
	// The one shared program compiled at most once.
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "asc_program_cache_hits_total "); ok {
			if hits, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil || hits < n-1 {
				t.Errorf("asc_program_cache_hits_total = %v, want >= %d", v, n-1)
			}
		}
	}
}

// TestBatchPerJobErrors checks one bad job yields a per-job error, not a
// failed batch: the response is 200 with per-job statuses matching what
// /v1/run would have returned.
func TestBatchPerJobErrors(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2})
	good, want := sumRequest([]int64{1, 2, 3, 4})
	spin := spinRequest(100) // per-job wall-clock limit cuts it off
	batch, err := c.RunBatch(context.Background(), client.BatchRequest{Jobs: []client.RunRequest{
		good,
		{ASCL: "parallel = ;"},         // compile error
		{},                             // validation error: no source
		{ASCL: "x", Asm: "y"},          // validation error: both sources
		spin,                           // 504 per-job timeout
		{Asm: "lw s1, 4100(s0)\nhalt"}, // architectural trap
	}})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Completed != 1 || batch.Failed != 5 || batch.Canceled != 0 {
		t.Fatalf("tally = %d/%d/%d, want 1/5/0", batch.Completed, batch.Failed, batch.Canceled)
	}
	if batch.Jobs[0].Result == nil || batch.Jobs[0].Result.ScalarMem[0] != want {
		t.Errorf("good job result = %+v, want sum %d", batch.Jobs[0].Result, want)
	}
	for i, wantStatus := range map[int]int{1: 422, 2: 400, 3: 400, 4: 504, 5: 422} {
		jr := batch.Jobs[i]
		if jr.Result != nil || jr.Status != wantStatus || jr.Error == "" {
			t.Errorf("job %d = {status %d, error %q, result %v}, want status %d with error text",
				i, jr.Status, jr.Error, jr.Result, wantStatus)
		}
	}
}

// TestBatchCancellationReparks is the mid-batch cancellation contract: a
// batch-level deadline returns completed jobs' results, marks the rest
// canceled, and re-parks (not leaks) the warm machines the canceled jobs
// were running on.
func TestBatchCancellationReparks(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 4})
	fast, want := sumRequest([]int64{1, 2, 3, 4})
	spin := spinRequest(0) // no per-job limit; only the batch deadline stops it

	// Two fast jobs and three spinners, batch deadline well past the fast
	// jobs but far before the spinners' 30s default limit.
	batch, err := c.RunBatch(context.Background(), client.BatchRequest{
		Jobs:      []client.RunRequest{fast, fast, spin, spin, spin},
		TimeoutMs: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Completed != 2 || batch.Canceled != 3 || batch.Failed != 0 {
		t.Fatalf("tally = %d/%d/%d, want completed=2 canceled=3 failed=0", batch.Completed, batch.Failed, batch.Canceled)
	}
	for i := 0; i < 2; i++ {
		if batch.Jobs[i].Result == nil || batch.Jobs[i].Result.ScalarMem[0] != want {
			t.Errorf("fast job %d missing its result: %+v (error %q)", i, batch.Jobs[i].Result, batch.Jobs[i].Error)
		}
	}
	for i := 2; i < 5; i++ {
		jr := batch.Jobs[i]
		if jr.Status != 408 || !strings.Contains(jr.Error, "batch canceled") {
			t.Errorf("spinner %d = {status %d, error %q}, want 408 batch-canceled", i, jr.Status, jr.Error)
		}
	}

	// The canceled spinners' machines must be back in the pool: a fresh
	// job on the spinners' configuration is a pool hit, and the batch lane
	// holds no in-flight jobs.
	res, err := c.Run(context.Background(), spinRequest(50))
	if err == nil {
		t.Fatal("spin run unexpectedly succeeded")
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.PoolIdle == 0 {
		t.Error("no warm machines parked after batch cancellation — machines leaked")
	}
	_ = res
	_, body := httpGet(t, c.BaseURL+"/metrics", nil)
	if !strings.Contains(body, "asc_batch_running_jobs 0") {
		t.Error("batch lane still reports in-flight jobs after the batch resolved")
	}
	if !strings.Contains(body, `asc_batch_jobs_total{outcome="canceled"} 3`) {
		t.Errorf("exposition missing canceled batch-job count:\n%s", body)
	}
	// Re-park proof: the spinner configuration shows pool hits (the
	// follow-up spin run recycled a canceled spinner's machine).
	if !strings.Contains(body, `asc_pool_hits_total{config="pes=16`) {
		t.Error("follow-up spin job did not recycle a canceled job's machine")
	}
}

// TestBatchAdmission covers whole-batch admission failures: empty, over
// the size cap, and backpressure with a Retry-After hint.
func TestBatchAdmission(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1, BatchMaxJobs: 4})
	base := c.BaseURL

	resp, _ := postBatch(t, base, client.BatchRequest{})
	if resp.StatusCode != 400 {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	fast, _ := sumRequest([]int64{1, 2})
	resp, _ = postBatch(t, base, client.BatchRequest{Jobs: []client.RunRequest{fast, fast, fast, fast, fast}})
	if resp.StatusCode != 400 {
		t.Errorf("oversized batch status = %d, want 400", resp.StatusCode)
	}

	// Fill the batch lane (concurrency 1 + queue 1 = 2 in-flight jobs),
	// then check the next batch bounces with 429 and a Retry-After hint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.RunBatch(ctx, client.BatchRequest{Jobs: []client.RunRequest{spinRequest(5000), spinRequest(5000)}})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, body := httpGet(t, base+"/metrics", nil)
		if strings.Contains(body, "asc_batch_running_jobs 2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch lane never filled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ = postBatch(t, base, client.BatchRequest{Jobs: []client.RunRequest{fast}})
	if resp.StatusCode != 429 {
		t.Errorf("overflow batch status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 batch response missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	cancel()
	wg.Wait()
}

// TestBatchDrainingRejects checks a draining server turns batches away
// with 503 plus Retry-After, and that Shutdown waits for in-flight
// batches to resolve.
func TestBatchDrainingRejects(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL)

	// Occupy the batch lane so Shutdown has something to drain.
	fast, want := sumRequest([]int64{5, 6, 7, 8})
	done := make(chan *client.BatchResult, 1)
	go func() {
		br, err := c.RunBatch(context.Background(), client.BatchRequest{
			Jobs: []client.RunRequest{spinRequest(700), fast},
		})
		if err != nil {
			t.Errorf("in-flight batch failed: %v", err)
		}
		done <- br
	}()
	deadlineUp := time.Now().Add(2 * time.Second)
	for {
		// The fast sub-job may already have finished; any in-flight batch
		// sub-job (the 700ms spinner) is enough to give Shutdown work.
		_, body := httpGet(t, hs.URL+"/metrics", nil)
		if strings.Contains(body, "asc_batch_running_jobs 1") ||
			strings.Contains(body, "asc_batch_running_jobs 2") {
			break
		}
		if time.Now().After(deadlineUp) {
			t.Fatal("batch never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, _ := postBatch(t, hs.URL, client.BatchRequest{Jobs: []client.RunRequest{fast}})
		if resp.StatusCode == 503 {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 batch response missing Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch during drain was not rejected with 503")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	br := <-done
	if br == nil || br.Jobs[1].Result == nil || br.Jobs[1].Result.ScalarMem[0] != want {
		t.Errorf("batch admitted before drain lost its fast job's result: %+v", br)
	}
}

// TestRunRetryAfterHeaders checks the single-run lane's 429 and 503
// responses carry the queue-depth-derived Retry-After hint.
func TestRunRetryAfterHeaders(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Run(ctx, spinRequest(10_000))
		}()
	}
	waitMetrics(t, c, 2*time.Second, func(m *client.Metrics) bool {
		return m.Running == 1 && m.QueueDepth == 1
	})
	body, _ := json.Marshal(spinRequest(10_000))
	resp, err := http.Post(c.BaseURL+"/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 run response missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	cancel()
	wg.Wait()
}

// TestBatchDegenerateGangCacheHit: a gang group that degrades to one solo
// run (its second lane's scalar image cannot fit the machine) resolves its
// program once, so the job that compiled it reports programCacheHit false,
// as the same job alone on /v1/run would, and the cache counts one miss
// and no hits.
func TestBatchDegenerateGangCacheHit(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2})
	good, want := sumRequest([]int64{1, 2, 3, 4})
	bad := good
	bad.ScalarMem = make([]int64, 1<<20)
	batch, err := c.RunBatch(context.Background(), client.BatchRequest{Jobs: []client.RunRequest{good, bad}})
	if err != nil {
		t.Fatal(err)
	}
	res := batch.Jobs[0].Result
	if res == nil {
		t.Fatalf("job 0: no result (error %q)", batch.Jobs[0].Error)
	}
	if res.ScalarMem[0] != want {
		t.Errorf("job 0 result %d, want %d", res.ScalarMem[0], want)
	}
	if res.ProgramCacheHit {
		t.Error("job 0 compiled its program but reports programCacheHit: true")
	}
	if st := batch.Jobs[1].Status; st != http.StatusBadRequest {
		t.Errorf("job 1 status %d, want 400", st)
	}
	_, body := httpGet(t, c.BaseURL+"/metrics", nil)
	if hits, misses := counterValue(t, body, "asc_program_cache_hits_total"),
		counterValue(t, body, "asc_program_cache_misses_total"); hits != 0 || misses != 1 {
		t.Errorf("program cache hits/misses = %v/%v, want 0/1", hits, misses)
	}
}
