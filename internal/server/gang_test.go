package server_test

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// counterValue extracts a plain counter's value from the Prometheus text
// exposition; missing series fail the test.
func counterValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, v, err)
			}
			return f
		}
	}
	t.Fatalf("exposition missing %s:\n%s", name, body)
	return 0
}

// TestGangBatchBitIdentical is the tentpole's correctness criterion at the
// wire: a batch of same-program jobs executes as one lockstep gang, and
// every per-job result — statistics and memory dumps — is bit-identical to
// a solo /v1/run of the same job.
func TestGangBatchBitIdentical(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2})
	ctx := context.Background()

	const n = 8
	jobs := make([]client.RunRequest, n)
	wants := make([]*client.RunResult, n)
	for i := range jobs {
		vals := make([]int64, 4)
		for pe := range vals {
			vals[pe] = int64(i*10 + pe + 1)
		}
		req, _ := sumRequest(vals)
		jobs[i] = req
		res, err := c.Run(ctx, req)
		if err != nil {
			t.Fatalf("solo job %d: %v", i, err)
		}
		wants[i] = res
	}

	batch, err := c.RunBatch(ctx, client.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Completed != n {
		t.Fatalf("tally = %d/%d/%d, want %d/0/0", batch.Completed, batch.Failed, batch.Canceled, n)
	}
	for i, jr := range batch.Jobs {
		got, want := jr.Result, wants[i]
		if got == nil {
			t.Fatalf("job %d: no result (error %q)", i, jr.Error)
		}
		if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
			got.ScalarOps != want.ScalarOps || got.ParallelOps != want.ParallelOps ||
			got.ReductionOps != want.ReductionOps || got.IdleCycles != want.IdleCycles ||
			got.Asm != want.Asm {
			t.Errorf("job %d: ganged stats diverge from solo:\ngang: %+v\nsolo: %+v", i, got, want)
		}
		for w := range want.ScalarMem {
			if got.ScalarMem[w] != want.ScalarMem[w] {
				t.Errorf("job %d word %d: gang %d != solo %d", i, w, got.ScalarMem[w], want.ScalarMem[w])
			}
		}
	}

	_, body := httpGet(t, c.BaseURL+"/metrics", nil)
	if v := counterValue(t, body, "asc_gang_jobs_total"); v < n {
		t.Errorf("asc_gang_jobs_total = %v, want >= %d (batch did not gang)", v, n)
	}
	if !strings.Contains(body, "asc_gang_size_jobs_count") {
		t.Error("exposition missing asc_gang_size_jobs histogram")
	}
}

// TestGangDivergencePeelE2E submits a batch whose jobs share a program but
// branch on their scalar memory: the minority lane takes the other arm,
// peels out of the gang mid-run, and finishes on its own copy of the
// gang's front end. Every job's architectural outputs and statistics must
// still match a never-ganged run, and the peel must be visible in the
// metrics.
func TestGangDivergencePeelE2E(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2})
	ctx := context.Background()

	const src = `
	lw s1, 0(s0)
	bnez s1, big
	addi s2, s0, 5
	j fin
big:
	addi s2, s0, 9
fin:
	rsum s3, p1
	sw s2, 1(s0)
	halt
`
	mk := func(word int64) client.RunRequest {
		return client.RunRequest{
			Asm:        src,
			Config:     client.MachineConfig{PEs: 4, Width: 16},
			ScalarMem:  []int64{word},
			DumpScalar: 2,
		}
	}
	jobs := []client.RunRequest{mk(0), mk(0), mk(1), mk(0)} // job 2 diverges

	wants := make([]*client.RunResult, len(jobs))
	for i := range jobs {
		res, err := c.Run(ctx, jobs[i])
		if err != nil {
			t.Fatalf("solo job %d: %v", i, err)
		}
		wants[i] = res
	}

	obs0, cyc0 := simTotals(t, c.BaseURL)
	batch, err := c.RunBatch(ctx, client.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Completed != len(jobs) {
		t.Fatalf("tally = %d/%d/%d, want %d/0/0", batch.Completed, batch.Failed, batch.Canceled, len(jobs))
	}
	var total int64
	for i, jr := range batch.Jobs {
		got, want := jr.Result, wants[i]
		if got == nil {
			t.Fatalf("job %d: no result (error %q)", i, jr.Error)
		}
		total += got.Cycles
		// Memory must match bit for bit on every lane, peeled included.
		for w := range want.ScalarMem {
			if got.ScalarMem[w] != want.ScalarMem[w] {
				t.Errorf("job %d word %d: gang %d != solo %d", i, w, got.ScalarMem[w], want.ScalarMem[w])
			}
		}
		// Every lane keeps solo-identical statistics, the peeled one too.
		if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
			t.Errorf("job %d: lane stats diverge from solo:\ngang: %+v\nsolo: %+v", i, got, want)
		}
	}

	_, body := httpGet(t, c.BaseURL+"/metrics", nil)
	if v := counterValue(t, body, "asc_gang_divergence_peels_total"); v < 1 {
		t.Errorf("asc_gang_divergence_peels_total = %v, want >= 1", v)
	}
	if v := counterValue(t, body, "asc_gang_jobs_total"); v < float64(len(jobs)) {
		t.Errorf("asc_gang_jobs_total = %v, want >= %d", v, len(jobs))
	}
	// The gang folds and observes every lane once, from its whole-run
	// statistics, so the cycle total grows by the jobs' Cycles.
	obs, cyc := simTotals(t, c.BaseURL)
	if obs-obs0 != float64(len(jobs)) {
		t.Errorf("asc_sim_active_threads grew by %v observations, want %d", obs-obs0, len(jobs))
	}
	if got := int64(cyc - cyc0); got != total {
		t.Errorf("asc_sim_cycles_total grew by %d, want the jobs' total %d", got, total)
	}
}

// TestGangBackpressureRetryAfter is the satellite regression: when a gang
// occupies the batch lane, the 429 turned-away batch still carries the
// queue-depth-derived Retry-After hint, exactly like the fan-out path.
func TestGangBackpressureRetryAfter(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1, BatchMaxJobs: 4})
	base := c.BaseURL

	// Two same-program spinners gang into one group holding the whole
	// batch lane (concurrency 1 + queue 1 = 2 in-flight jobs).
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
			t.Fatal("filler batch never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	fast, _ := sumRequest([]int64{1, 2})
	resp, _ := postBatch(t, base, client.BatchRequest{Jobs: []client.RunRequest{fast}})
	if resp.StatusCode != 429 {
		t.Fatalf("batch during gang occupancy = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("429 Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}

	cancel()
	wg.Wait()
	// The spinners really did run as a gang, not as two fan-out jobs. The
	// client returns as soon as its context cancels, so poll: the server
	// may still be tearing the gang down.
	deadline = time.Now().Add(2 * time.Second)
	for {
		_, body := httpGet(t, base+"/metrics", nil)
		if counterValue(t, body, "asc_gang_jobs_total") == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("asc_gang_jobs_total never reached 2 (filler batch did not gang):\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchTracedJobsRunSolo: traced jobs never gang, so a batch of them
// fans out one machine per job, and each job still returns its own result.
func TestBatchTracedJobsRunSolo(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 2})
	jobs := make([]client.RunRequest, 4)
	wants := make([]int64, len(jobs))
	for i := range jobs {
		jobs[i], wants[i] = sumRequest([]int64{int64(10 * i), 2, 3, 4})
		jobs[i].Trace = true
	}
	batch, err := c.RunBatch(context.Background(), client.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Completed != len(jobs) {
		t.Fatalf("tally = %d/%d/%d, want %d/0/0", batch.Completed, batch.Failed, batch.Canceled, len(jobs))
	}
	for i, jr := range batch.Jobs {
		if jr.Result == nil || jr.Result.ScalarMem[0] != wants[i] {
			t.Errorf("job %d result = %+v, want sum %d", i, jr.Result, wants[i])
		}
	}
	_, body := httpGet(t, c.BaseURL+"/metrics", nil)
	if v := counterValue(t, body, "asc_gang_jobs_total"); v != 0 {
		t.Errorf("asc_gang_jobs_total = %v, want 0: traced jobs must run solo", v)
	}
}

// soloJob answers req through /v1/run in a batch job's shape, with the
// hit flags cleared (see noHits).
func soloJob(t *testing.T, c *client.Client, req client.RunRequest) client.BatchJobResult {
	t.Helper()
	res, err := c.Run(context.Background(), req)
	var ae *client.APIError
	if errors.As(err, &ae) {
		return client.BatchJobResult{Status: ae.Status, Error: ae.Message}
	} else if err != nil {
		t.Fatal(err)
	}
	return noHits(client.BatchJobResult{Result: res})
}

// noHits clears a result's pool and cache hit flags, which depend on what
// ran before it.
func noHits(jr client.BatchJobResult) client.BatchJobResult {
	if r := jr.Result; r != nil {
		r.PoolHit, r.ProgramCacheHit, r.BlockCacheHit = false, false, false
	}
	return jr
}

// TestGangRunsLanesThatLoad: a same-program batch job that /v1/run refuses
// for its memory images — a local-memory row one word past a PE's local
// memory, or a .data image one word past scalar memory — answers exactly
// what /v1/run answers it, and the jobs left run as one gang of however
// many lanes that leaves, one included, each with its solo result.
func TestGangRunsLanesThatLoad(t *testing.T) {
	job := func(v int64, longRow bool) client.RunRequest {
		req, _ := sumRequest([]int64{v, 2, 3, 4})
		req.Config.LocalMemWords, req.DumpLocal = 8, 1
		if longRow {
			req.LocalMem[1] = make([]int64, 9)
		}
		return req
	}
	data := client.RunRequest{Asm: ".data\n.word " + strings.Repeat("0, ", 4096) + "0\n.text\nhalt\n",
		Config: client.MachineConfig{PEs: 4}}
	for _, tc := range []struct {
		jobs  []client.RunRequest
		fault string // in /v1/run's answer to each refused job
		gang  int    // jobs left to run ganged
	}{
		{[]client.RunRequest{job(1, false), job(2, false), job(3, true), job(4, false)}, "local mem row 1 has 9 words", 3},
		{[]client.RunRequest{job(1, true), job(2, true), job(3, false), job(4, true)}, "local mem row 1 has 9 words", 1},
		{[]client.RunRequest{data, data}, "scalar mem image 4097 words, capacity 4096", 0},
	} {
		_, c := newTestServer(t, server.Config{Workers: 2})
		wants := make([]client.BatchJobResult, len(tc.jobs))
		refused := 0
		for i := range tc.jobs {
			if wants[i] = soloJob(t, c, tc.jobs[i]); wants[i].Status == 400 && strings.Contains(wants[i].Error, tc.fault) {
				refused++
			}
		}
		if refused != len(tc.jobs)-tc.gang {
			t.Fatalf("%q: /v1/run refused %d jobs, want %d: %+v", tc.fault, refused, len(tc.jobs)-tc.gang, wants)
		}
		_, body := httpGet(t, c.BaseURL+"/metrics", nil)
		before := counterValue(t, body, "asc_gang_jobs_total")
		batch, err := c.RunBatch(context.Background(), client.BatchRequest{Jobs: tc.jobs})
		if err != nil {
			t.Fatal(err)
		}
		for i, jr := range batch.Jobs {
			if got := noHits(jr); !reflect.DeepEqual(got, wants[i]) {
				t.Errorf("%q: job %d = %+v, want /v1/run's %+v", tc.fault, i, got, wants[i])
			}
		}
		_, body = httpGet(t, c.BaseURL+"/metrics", nil)
		if got := counterValue(t, body, "asc_gang_jobs_total") - before; got != float64(tc.gang) {
			t.Errorf("%q: asc_gang_jobs_total rose by %v, want %d", tc.fault, got, tc.gang)
		}
	}
}
