package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/server"
)

// syncBuffer is a goroutine-safe log sink for capturing backend slog
// output (handlers log from request goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestFleetTraceStitching is the tracing acceptance test: a traced batch
// through the gateway to a 2-backend fleet, with the digest's ring owner
// draining so the gateway is forced through one retry, must yield ONE
// trace whose stitched waterfall carries the gateway's route/forward/retry
// spans and the surviving backend's compile/gang/exec spans — with the
// same trace id in the backend's slog output and in an exemplar on
// asc_request_duration_seconds.
func TestFleetTraceStitching(t *testing.T) {
	logs := &syncBuffer{}
	var nodes []*fleetNode
	backends := make([]string, 2)
	for i := 0; i < 2; i++ {
		core := server.New(server.Config{
			Workers:     2,
			TraceSample: 1,
			Logger:      slog.New(slog.NewTextHandler(logs, nil)),
		})
		hs := httptest.NewServer(core.Handler())
		nodes = append(nodes, &fleetNode{core: core, hs: hs})
		backends[i] = hs.URL
	}
	gw, err := gateway.New(gateway.Config{
		Backends: backends,
		// The checker must keep believing in the drained owner so the
		// gateway attempts it and earns its retry span.
		HealthInterval: time.Hour,
		TraceSample:    1,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
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
		for _, nd := range nodes {
			nd.core.Shutdown(ctx)
			nd.hs.Close()
		}
	})

	// Find the digest's ring owner with a probe run, then drain it: its
	// handlers answer 503 from then on, forcing the batch through a retry
	// to the survivor.
	probe, _ := sumJob(8, []int64{1, 2, 3})
	c := client.New(gwHS.URL)
	if _, err := c.Run(context.Background(), probe); err != nil {
		t.Fatal(err)
	}
	owner, survivor := 0, 1
	if promSum(t, nodes[1].hs.URL, "asc_requests_total") > 0 {
		owner, survivor = 1, 0
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := nodes[owner].core.Shutdown(dctx); err != nil {
		t.Fatal(err)
	}

	// One traced batch: three same-digest jobs, enough to gang.
	var jobs []client.RunRequest
	for i := 0; i < 3; i++ {
		req, _ := sumJob(8, []int64{1, 2, 3})
		jobs = append(jobs, req)
	}
	body, _ := json.Marshal(&client.BatchRequest{Jobs: jobs})
	const traceID = "deadbeefcafe00014bf92f3577b34da6"
	hreq, err := http.NewRequest(http.MethodPost, gwHS.URL+"/v1/batch", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("X-Trace-Id = %q, want %q (inbound traceparent not adopted)", got, traceID)
	}
	var bres client.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&bres); err != nil {
		t.Fatal(err)
	}
	if bres.Completed != len(jobs) {
		t.Fatalf("batch completed=%d failed=%d, want %d/0", bres.Completed, bres.Failed, len(jobs))
	}

	// The stitched fleet-wide trace: gateway spans plus backend spans
	// under one trace id.
	tresp, err := http.Get(gwHS.URL + "/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var dump dtrace.TraceDump
	if err := json.NewDecoder(tresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Traces) != 1 {
		t.Fatalf("stitched dump has %d traces, want 1", len(dump.Traces))
	}
	st := dump.Traces[0]
	if st.TraceID != traceID {
		t.Fatalf("stitched trace id = %q, want %q", st.TraceID, traceID)
	}
	byService := map[string]map[string]int{}
	for _, sp := range st.Spans {
		if byService[sp.Service] == nil {
			byService[sp.Service] = map[string]int{}
		}
		byService[sp.Service][sp.Name]++
	}
	for _, name := range []string{"batch", "chunk", "route", "forward", "retry"} {
		if byService["ascgw"][name] == 0 {
			t.Errorf("stitched trace missing gateway span %q (got %v)", name, byService["ascgw"])
		}
	}
	for _, name := range []string{"batch", "admission", "gang_group", "compile", "exec"} {
		if byService["ascd"][name] == 0 {
			t.Errorf("stitched trace missing backend span %q (got %v)", name, byService["ascd"])
		}
	}

	// The backend's half must parent into the gateway's forward/retry
	// span, not float as an orphan: its root's parent is a gateway span id.
	gwSpans := map[string]bool{}
	for _, sp := range st.Spans {
		if sp.Service == "ascgw" {
			gwSpans[sp.SpanID] = true
		}
	}
	rooted := false
	for _, sp := range st.Spans {
		if sp.Service == "ascd" && sp.Name == "batch" && gwSpans[sp.ParentID] {
			rooted = true
		}
	}
	if !rooted {
		t.Error("backend root span does not parent into a gateway span — cross-tier propagation broken")
	}

	// The waterfall view renders both tiers as one tree.
	wfResp, err := http.Get(gwHS.URL + "/debug/traces?trace=" + traceID + "&format=waterfall")
	if err != nil {
		t.Fatal(err)
	}
	wf, _ := io.ReadAll(wfResp.Body)
	wfResp.Body.Close()
	for _, want := range []string{"trace " + traceID, "ascgw", "ascd", "retry", "exec"} {
		if !strings.Contains(string(wf), want) {
			t.Errorf("waterfall missing %q:\n%s", want, wf)
		}
	}

	// Log correlation: the surviving backend logged the batch with the
	// trace id on its lines.
	if !strings.Contains(logs.String(), "trace_id="+traceID) {
		t.Error("backend slog output never mentions the trace id")
	}

	// Metric correlation: the survivor's asc_request_duration_seconds
	// carries an exemplar referencing this trace id, and the gateway's own
	// histogram does too.
	assertExemplar := func(url, family string) {
		t.Helper()
		r, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		text, _ := io.ReadAll(r.Body)
		fams, err := obs.ParseText(string(text))
		if err != nil {
			t.Fatalf("%s/metrics does not parse with exemplars: %v", url, err)
		}
		for _, f := range fams {
			if f.Name != family {
				continue
			}
			for _, s := range f.Samples {
				if s.Exemplar == nil {
					continue
				}
				for _, l := range s.Exemplar.Labels {
					if l.Name == "trace_id" && l.Value == traceID {
						return
					}
				}
			}
		}
		t.Errorf("%s: no %s exemplar referencing trace %s", url, family, traceID)
	}
	assertExemplar(nodes[survivor].hs.URL, "asc_request_duration_seconds")
	assertExemplar(gwHS.URL, "asc_gw_request_duration_seconds")
}

// TestGatewayScrapeFailureAccounting: a dead backend during a fleet
// scrape increments asc_gw_scrape_failures_total for that backend and the
// merged exposition's leading comment reports the partial merge.
func TestGatewayScrapeFailureAccounting(t *testing.T) {
	f := newFleet(t, 2, nil)
	f.nodes[1].hs.CloseClientConnections()
	f.nodes[1].hs.Close()

	resp, err := http.Get(f.gwHS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if _, err := obs.ParseText(string(text)); err != nil {
		t.Errorf("partial fleet scrape does not parse: %v", err)
	}
	first, _, _ := strings.Cut(string(text), "\n")
	if !strings.HasPrefix(first, "# asc-gw-fleet-scrape: 1/2 backends merged; failed: ") {
		t.Errorf("partial-merge comment = %q, want '# asc-gw-fleet-scrape: 1/2 backends merged; failed: ...'", first)
	}

	// The failure counter surfaces on the next scrape of the gateway's
	// own registry (counters increment during the failed scrape itself).
	if got := promSum(t, f.gwHS.URL, "asc_gw_scrape_failures_total"); got < 1 {
		t.Errorf("asc_gw_scrape_failures_total = %v, want >= 1", got)
	}
}

// TestGatewayRefusesMalformedScrape: a backend whose /metrics is not an
// exposition ParseText accepts is counted as a scrape failure, and none
// of its samples reach either fleet view.
func TestGatewayRefusesMalformedScrape(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			io.WriteString(w, "x_total 3\n")
			return
		}
		io.WriteString(w, "ok\n")
	}))
	defer bad.Close()
	f := newFleet(t, 1, func(c *gateway.Config) { c.Backends = append(c.Backends, bad.URL) })

	for _, view := range []string{"", "?view=fleet"} {
		resp, err := http.Get(f.gwHS.URL + "/metrics" + view)
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if _, err := obs.ParseText(string(text)); err != nil {
			t.Errorf("%q view does not parse: %v", view, err)
		}
		if strings.Contains(string(text), "x_total") {
			t.Errorf("%q view merged the malformed backend's sample:\n%s", view, text)
		}
		if first, _, _ := strings.Cut(string(text), "\n"); !strings.HasPrefix(first, "# asc-gw-fleet-scrape: 1/2 backends merged; failed: ") {
			t.Errorf("%q view partial-merge comment = %q", view, first)
		}
	}
	if got := promSum(t, f.gwHS.URL, "asc_gw_scrape_failures_total"); got < 2 {
		t.Errorf("asc_gw_scrape_failures_total = %v, want >= 2", got)
	}
}
