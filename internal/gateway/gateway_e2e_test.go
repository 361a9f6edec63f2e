package gateway_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/server"
)

// fleetNode is one ascd backend of a test fleet.
type fleetNode struct {
	core *server.Server
	hs   *httptest.Server
}

// fleet is a gateway fronting n live backends, all torn down at cleanup.
type fleet struct {
	gw    *gateway.Gateway
	gwHS  *httptest.Server
	nodes []*fleetNode
	c     *client.Client
}

func newFleet(t *testing.T, n int, mutate func(*gateway.Config)) *fleet {
	t.Helper()
	f := &fleet{}
	backends := make([]string, n)
	for i := 0; i < n; i++ {
		core := server.New(server.Config{Workers: 2})
		hs := httptest.NewServer(core.Handler())
		f.nodes = append(f.nodes, &fleetNode{core: core, hs: hs})
		backends[i] = hs.URL
	}
	cfg := gateway.Config{
		Backends:       backends,
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.gw = gw
	f.gwHS = httptest.NewServer(gw.Handler())
	f.c = client.New(f.gwHS.URL)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		f.gwHS.Close()
		for _, nd := range f.nodes {
			nd.core.Shutdown(ctx)
			nd.hs.Close()
		}
	})
	return f
}

// sumJob builds an ASCL job summing per-PE values; pes varies the digest
// (distinct Config ⇒ distinct routing key), vals vary only the data.
func sumJob(pes int, vals []int64) (client.RunRequest, int64) {
	rows := make([][]int64, pes)
	var want int64
	for i := range rows {
		v := int64(1)
		if i < len(vals) {
			v = vals[i]
		}
		rows[i] = []int64{v}
		want += v
	}
	return client.RunRequest{
		ASCL: `
			parallel v = pread(0);
			write(0, sumval(v));
		`,
		Config:     client.MachineConfig{PEs: pes, Width: 32},
		LocalMem:   rows,
		DumpScalar: 1,
	}, want
}

// promSum scrapes url and sums every sample of the named family.
func promSum(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatalf("parsing %s/metrics: %v", url, err)
	}
	var sum float64
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if s.Name == name {
				sum += s.Value
			}
		}
	}
	return sum
}

// TestGatewayAffinityAndIdenticalResults is the routing core of the
// acceptance criteria: repeated same-digest jobs land on one backend
// (proved by program-cache hits, which exist only on the node that
// compiled the program) and gateway-routed results are bit-identical to
// a direct ascd run.
func TestGatewayAffinityAndIdenticalResults(t *testing.T) {
	f := newFleet(t, 3, nil)
	ctx := context.Background()

	// A standalone backend, not in the fleet, as ground truth.
	direct := server.New(server.Config{Workers: 2})
	directHS := httptest.NewServer(direct.Handler())
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		direct.Shutdown(sctx)
		directHS.Close()
	})
	directC := client.New(directHS.URL)

	normalize := func(r *client.RunResult) string {
		cp := *r
		cp.PoolHit, cp.ProgramCacheHit = false, false
		b, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for _, pes := range []int{4, 8, 16, 32} {
		req, want := sumJob(pes, []int64{3, 1, 4, 1})
		for i := 0; i < 5; i++ {
			res, err := f.c.Run(ctx, req)
			if err != nil {
				t.Fatalf("pes=%d run %d: %v", pes, i, err)
			}
			if res.ScalarMem[0] != want {
				t.Fatalf("pes=%d run %d: scalar[0] = %d, want %d", pes, i, res.ScalarMem[0], want)
			}
			if i == 0 {
				dres, err := directC.Run(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if normalize(res) != normalize(dres) {
					t.Errorf("pes=%d: gateway result differs from direct ascd:\n gw: %s\n direct: %s",
						pes, normalize(res), normalize(dres))
				}
				continue
			}
			// Every repeat must be a program-cache hit: the cache is
			// per-backend, so a hit proves the job landed on the node that
			// compiled it. A miss would mean routing scattered the digest.
			if !res.ProgramCacheHit {
				t.Errorf("pes=%d run %d: no program-cache hit — digest scattered across backends", pes, i)
			}
		}
	}

	// Fleet-level cross-check: cache hits across all backends == repeats.
	var hits float64
	for _, nd := range f.nodes {
		hits += promSum(t, nd.hs.URL, "asc_program_cache_hits_total")
	}
	if hits != 16 { // 4 programs × 4 repeat runs
		t.Errorf("fleet program-cache hits = %v, want 16", hits)
	}
}

// TestGatewayBatchGanging: a mixed batch splits by digest, each group
// reaches one backend intact, and the backends gang them — grouping
// survives routing. Results come back index-aligned.
func TestGatewayBatchGanging(t *testing.T) {
	f := newFleet(t, 2, nil)

	// Two programs (pes=8 and pes=16), 8 jobs each, interleaved so the
	// splitter has to regroup them.
	var jobs []client.RunRequest
	var wants []int64
	for i := 0; i < 8; i++ {
		for _, pes := range []int{8, 16} {
			req, want := sumJob(pes, []int64{int64(i), int64(i) + 1})
			jobs = append(jobs, req)
			wants = append(wants, want)
		}
	}
	res, err := f.c.RunBatch(context.Background(), client.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) || res.Failed != 0 {
		t.Fatalf("batch: completed=%d failed=%d, want %d/0", res.Completed, res.Failed, len(jobs))
	}
	for i, jr := range res.Jobs {
		if jr.Result == nil {
			t.Fatalf("job %d: no result: %+v", i, jr)
		}
		if jr.Result.ScalarMem[0] != wants[i] {
			t.Errorf("job %d: scalar[0] = %d, want %d (results misaligned?)", i, jr.Result.ScalarMem[0], wants[i])
		}
	}

	// Gang proof: every job must have executed inside a gang. Sprayed
	// routing would leave singleton jobs nothing to gang with.
	var ganged float64
	for _, nd := range f.nodes {
		ganged += promSum(t, nd.hs.URL, "asc_gang_jobs_total")
	}
	if int(ganged) != len(jobs) {
		t.Errorf("fleet ganged %v jobs, want %d — digest grouping lost in routing", ganged, len(jobs))
	}
}

// TestGatewayBackendKill: killing a backend mid-traffic must never hang
// or surface transport errors to clients — every request either succeeds
// (transparently retried on the surviving replica) or sheds with
// 503+Retry-After.
func TestGatewayBackendKill(t *testing.T) {
	f := newFleet(t, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	req, want := sumJob(8, []int64{2, 7, 1, 8})
	for i := 0; i < 30; i++ {
		if i == 10 {
			f.nodes[0].hs.CloseClientConnections()
			f.nodes[0].hs.Close()
		}
		res, err := f.c.Run(ctx, req)
		if err != nil {
			var ae *client.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("run %d: non-HTTP error surfaced to client: %v", i, err)
			}
			if !ae.Temporary() {
				t.Fatalf("run %d: non-retryable status %d: %v", i, ae.Status, err)
			}
			continue // a shed is acceptable; a hang or transport error is not
		}
		if res.ScalarMem[0] != want {
			t.Fatalf("run %d: scalar[0] = %d, want %d", i, res.ScalarMem[0], want)
		}
	}

	// After ejection settles the fleet serves cleanly on one node.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := f.c.Run(ctx, req); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("fleet did not recover on the surviving backend")
}

// TestGatewayFleetMetrics: the merged scrape carries gateway series plus
// backend series (backend-labeled by default, summed under ?view=fleet)
// and both views parse.
func TestGatewayFleetMetrics(t *testing.T) {
	f := newFleet(t, 2, nil)
	req, _ := sumJob(8, []int64{5, 5})
	for i := 0; i < 4; i++ {
		if _, err := f.c.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", url, resp.Status)
		}
		return string(b)
	}

	labeled := get(f.gwHS.URL + "/metrics")
	if _, err := obs.ParseText(labeled); err != nil {
		t.Errorf("per-backend view does not parse: %v", err)
	}
	if !strings.Contains(labeled, "asc_gw_requests_total") {
		t.Error("gateway's own series missing from fleet scrape")
	}
	if !strings.Contains(labeled, `asc_requests_total{backend="`) {
		t.Error("backend series not labeled with backend in default view")
	}

	summed := get(f.gwHS.URL + "/metrics?view=fleet")
	fams, err := obs.ParseText(summed)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range fams {
		if fam.Name != "asc_requests_total" {
			continue
		}
		if len(fam.Samples) != 1 {
			t.Fatalf("fleet view did not sum asc_requests_total: %+v", fam.Samples)
		}
		if fam.Samples[0].Value != 4 {
			t.Errorf("fleet asc_requests_total = %v, want 4", fam.Samples[0].Value)
		}
	}
}

// TestGatewayMetricsJSON: client.Metrics against the gateway decodes the
// JSON view projected from the fleet sum — every counter and gauge is the
// sum of the backends' own views, and the fleet latency quantiles lie
// between the busy backends' quantiles.
func TestGatewayMetricsJSON(t *testing.T) {
	f := newFleet(t, 2, nil)
	ctx := context.Background()
	for _, pes := range []int{4, 8, 16, 32, 64} {
		req, _ := sumJob(pes, nil)
		for i := 0; i < 2; i++ {
			if _, err := f.c.Run(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}

	var want client.Metrics
	var busy []*client.Metrics
	for _, nd := range f.nodes {
		m, err := client.New(nd.hs.URL).Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want.Requests += m.Requests
		want.Completed += m.Completed
		want.Failed += m.Failed
		want.Rejected += m.Rejected
		want.Canceled += m.Canceled
		want.Running += m.Running
		want.QueueDepth += m.QueueDepth
		want.QueueCap += m.QueueCap
		want.Workers += m.Workers
		want.PoolHits += m.PoolHits
		want.PoolMisses += m.PoolMisses
		want.PoolIdle += m.PoolIdle
		want.CyclesSimulated += m.CyclesSimulated
		want.LatencyOverflow += m.LatencyOverflow
		if m.Completed > 0 {
			busy = append(busy, m)
		}
	}
	got, err := f.c.Metrics(ctx)
	if err != nil {
		t.Fatalf("client.Metrics through the gateway: %v", err)
	}
	if got.Completed != 10 {
		t.Errorf("fleet completed = %d, want 10", got.Completed)
	}
	p50, p99 := got.LatencyMsP50, got.LatencyMsP99
	got.LatencyMsP50, got.LatencyMsP99 = 0, 0
	if *got != want {
		t.Errorf("gateway view = %+v\nbackend sum  = %+v", *got, want)
	}
	for _, q := range []struct {
		name string
		v    float64
		of   func(*client.Metrics) float64
	}{
		{"p50", p50, func(m *client.Metrics) float64 { return m.LatencyMsP50 }},
		{"p99", p99, func(m *client.Metrics) float64 { return m.LatencyMsP99 }},
	} {
		lo, hi := q.of(busy[0]), q.of(busy[0])
		for _, m := range busy[1:] {
			lo, hi = min(lo, q.of(m)), max(hi, q.of(m))
		}
		if q.v < lo || q.v > hi || q.v <= 0 {
			t.Errorf("fleet %s = %v ms, want within the backends' [%v, %v]", q.name, q.v, lo, hi)
		}
	}
}

// TestGatewayShedsWithRetryAfter: with every replica refusing, the
// gateway sheds 503 with a Retry-After header rather than hanging or
// relaying a transport error.
func TestGatewayShedsWithRetryAfter(t *testing.T) {
	// One backend that exists only long enough to be configured.
	hs := httptest.NewServer(http.NotFoundHandler())
	url := hs.URL
	hs.Close()
	gw, err := gateway.New(gateway.Config{
		Backends:       []string{url},
		HealthInterval: time.Hour,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	gwHS := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		gwHS.Close()
	})

	req, _ := sumJob(4, []int64{1})
	body, _ := json.Marshal(&req)
	resp, err := http.Post(gwHS.URL+"/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("shed response missing X-Request-Id")
	}
}

// TestGatewayRequestIDThreading: an inbound id is echoed by the gateway
// and travels to the backend (the relayed response is the backend's, so
// a matching header proves the id crossed both hops).
func TestGatewayRequestIDThreading(t *testing.T) {
	f := newFleet(t, 1, nil)
	req, _ := sumJob(4, []int64{9})
	body, _ := json.Marshal(&req)
	hreq, err := http.NewRequest(http.MethodPost, f.gwHS.URL+"/v1/run", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", "e2e-trace-42")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if got := resp.Header.Get("X-Request-Id"); got != "e2e-trace-42" {
		t.Errorf("X-Request-Id = %q, want e2e-trace-42", got)
	}
}

// TestGatewayRequestIDEveryRoute checks the X-Request-Id promise of
// docs/API.md on every gateway route: a response always carries an id,
// and a valid inbound id is echoed. The drain route names a backend this
// gateway does not know, so it refuses without draining anything.
func TestGatewayRequestIDEveryRoute(t *testing.T) {
	f := newFleet(t, 1, nil)
	req, _ := sumJob(4, []int64{9})
	raw, _ := json.Marshal(&req)
	run := string(raw)
	routes := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/run", run},
		{http.MethodPost, "/v1/run", `{`},
		{http.MethodPost, "/v1/batch", `{"jobs": [` + run + `]}`},
		{http.MethodPost, "/v1/sessions", run},
		{http.MethodGet, "/v1/sessions", ""},
		{http.MethodGet, "/v1/sessions/s0123", ""},
		{http.MethodGet, "/v1/sessions/bad%20id", ""},
		{http.MethodPost, "/v1/sessions/s0123/resume", `{}`},
		{http.MethodPost, "/v1/admin/drain", `{"backend": "http://127.0.0.1:1"}`},
		{http.MethodGet, "/metrics", ""},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/debug/traces", ""},
	}
	for i, rt := range routes {
		for _, inbound := range []string{"", fmt.Sprintf("gw-rid-%d", i)} {
			hreq, err := http.NewRequest(rt.method, f.gwHS.URL+rt.path, strings.NewReader(rt.body))
			if err != nil {
				t.Fatal(err)
			}
			if inbound != "" {
				hreq.Header.Set("X-Request-Id", inbound)
			}
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			got := resp.Header.Get("X-Request-Id")
			switch {
			case got == "":
				t.Errorf("%s %s (status %d): no X-Request-Id", rt.method, rt.path, resp.StatusCode)
			case inbound != "" && got != inbound:
				t.Errorf("%s %s: X-Request-Id %q, want the inbound %q", rt.method, rt.path, got, inbound)
			}
		}
	}
}

// TestGatewayHealthzLifecycle: 200 while routable, 503 after Shutdown —
// the same contract ascd honors, so gateways stack behind load balancers.
func TestGatewayHealthzLifecycle(t *testing.T) {
	f := newFleet(t, 1, nil)
	resp, err := http.Get(f.gwHS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy gateway /healthz = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(f.gwHS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), "draining") {
		t.Fatalf("draining gateway /healthz = %d %q, want 503 draining", resp.StatusCode, b)
	}

	// And submissions shed immediately.
	req, _ := sumJob(4, []int64{1})
	_, err = f.c.Run(context.Background(), req)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("run on draining gateway: %v, want APIError 503", err)
	}
}

// TestGatewayBatchGroupFailure: when one digest group cannot be placed,
// only that group's jobs fail (with 503 and a retry hint); the rest of
// the batch completes — the per-job error isolation contract holds
// through the routing layer.
func TestGatewayBatchGroupFailure(t *testing.T) {
	f := newFleet(t, 2, func(cfg *gateway.Config) {
		cfg.BackendBatchMaxJobs = 4
	})
	// A batch bigger than one backend sub-batch, all same digest: it
	// splits into chunks that all still route and complete.
	var jobs []client.RunRequest
	var wants []int64
	for i := 0; i < 10; i++ {
		req, want := sumJob(8, []int64{int64(i)})
		jobs = append(jobs, req)
		wants = append(wants, want)
	}
	res, err := f.c.RunBatch(context.Background(), client.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("chunked batch: completed=%d failed=%d, want %d/0", res.Completed, res.Failed, len(jobs))
	}
	for i, jr := range res.Jobs {
		if jr.Result == nil || jr.Result.ScalarMem[0] != wants[i] {
			t.Fatalf("job %d misrouted or misaligned: %+v", i, jr)
		}
	}
}

// TestRequestBodyParity: ascd and ascgw read and decode request bodies
// alike, so a body that is not exactly one JSON value, or one over the
// body limit, gets the same 400 and the same error text from either tier.
func TestRequestBodyParity(t *testing.T) {
	f := newFleet(t, 1, func(c *gateway.Config) { c.MaxBodyBytes = server.DefaultConfig().MaxBodyBytes })
	post := func(base, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	oversized := `{"asm":"halt` + strings.Repeat(" ", int(server.DefaultConfig().MaxBodyBytes)) + `"}`
	for _, body := range []string{`{"asm":"halt"} x`, `{"asm":"halt"}{"asm":"nop"}`, oversized} {
		dStatus, dBody := post(f.nodes[0].hs.URL, body)
		gStatus, gBody := post(f.gwHS.URL, body)
		name := body[:min(len(body), 40)]
		if dStatus != http.StatusBadRequest || gStatus != http.StatusBadRequest {
			t.Errorf("body %q: ascd %d, ascgw %d, want 400 from both", name, dStatus, gStatus)
		}
		if dBody != gBody {
			t.Errorf("body %q: the tiers disagree:\nascd  %s\nascgw %s", name, dBody, gBody)
		}
	}
}

// TestGatewayFleetViewValues: the fleet view renders backend scrapes
// through obs.WriteFamilies, which prints an integral counter as digits
// and keeps a declared family that has no samples, in both views.
func TestGatewayFleetViewValues(t *testing.T) {
	const scrape = "# HELP asc_sim_cycles_total Simulated machine cycles across all jobs.\n" +
		"# TYPE asc_sim_cycles_total counter\n" +
		"asc_sim_cycles_total 1234567\n" +
		"# HELP asc_sessions_total Finished session segments by outcome.\n" +
		"# TYPE asc_sessions_total counter\n"
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			w.Header().Set("Content-Type", obs.ContentType)
			io.WriteString(w, scrape)
			return
		}
		io.WriteString(w, "ok\n")
	}))
	t.Cleanup(backend.Close)
	gw, err := gateway.New(gateway.Config{
		Backends: []string{backend.URL},
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	gwHS := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		gwHS.Close()
	})
	label := strings.TrimPrefix(backend.URL, "http://")
	for view, want := range map[string]string{
		"/metrics?view=fleet": "asc_sim_cycles_total 1234567\n",
		"/metrics":            `asc_sim_cycles_total{backend="` + label + `"} 1234567` + "\n",
	} {
		resp, err := http.Get(gwHS.URL + view)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if !strings.Contains(text, "# asc-gw-fleet-scrape: 1/1 backends merged") {
			t.Fatalf("%s: the backend was not merged:\n%s", view, text)
		}
		if !strings.Contains(text, want) {
			t.Errorf("%s lacks %q:\n%s", view, want, text)
		}
		if !strings.Contains(text, "# TYPE asc_sessions_total counter\n") {
			t.Errorf("%s drops the backend family with no samples:\n%s", view, text)
		}
		if _, err := obs.ParseText(text); err != nil {
			t.Errorf("%s does not parse: %v", view, err)
		}
	}
}
