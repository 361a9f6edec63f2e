package server_test

import (
	"strings"
	"testing"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// view renders reg and projects the parsed exposition onto the JSON view,
// the path GET /metrics?format=json takes on ascd and ascgw alike.
func view(t *testing.T, reg *obs.Registry) client.Metrics {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return server.MetricsView(fams)
}

// TestMetricsViewSumsLabels: counters and gauges sum over their labels,
// and jobs are read per outcome.
func TestMetricsViewSumsLabels(t *testing.T) {
	reg := obs.NewRegistry()
	reg.NewCounter("asc_requests_total", "x").Add(7)
	jobs := reg.NewCounterVec("asc_jobs_total", "x", "outcome")
	jobs.With("completed").Add(4)
	jobs.With("failed").Add(2)
	jobs.With("rejected").Add(1)
	hits := reg.NewCounterVec("asc_pool_hits_total", "x", "config")
	hits.With("pes=16").Add(3)
	hits.With("pes=64").Add(5)
	idle := reg.NewGaugeVec("asc_pool_idle_machines", "x", "config")
	idle.With("pes=16").Set(1)
	idle.With("pes=64").Set(2)
	reg.NewGaugeFunc("asc_workers", "x", func() float64 { return 4 })

	got := view(t, reg)
	want := client.Metrics{Requests: 7, Completed: 4, Failed: 2, Rejected: 1, PoolHits: 8, PoolIdle: 3, Workers: 4}
	if got != want {
		t.Errorf("view = %+v\nwant   %+v", got, want)
	}
}

// TestMetricsViewRankRule: a latency quantile is the upper bound of the
// bucket holding the ceil(q*count)-th request.
func TestMetricsViewRankRule(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.NewHistogram("asc_request_duration_seconds", "x", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 3, 3, 7, 7, 7} {
		h.Observe(v)
	}
	got := view(t, reg)
	// p50: rank 4 of 7 lands in le=4; p99: rank 7 lands in le=8.
	if got.LatencyMsP50 != 4000 || got.LatencyMsP99 != 8000 || got.LatencyOverflow != 0 {
		t.Errorf("p50/p99/overflow = %v/%v/%v, want 4000/8000/0",
			got.LatencyMsP50, got.LatencyMsP99, got.LatencyOverflow)
	}
}

// TestMetricsViewQuantileOverflow: an empty histogram reads zero, and a
// quantile that lands in the +Inf bucket is clamped to the largest finite
// bound while latencyOverflow counts the requests past it.
func TestMetricsViewQuantileOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.NewHistogram("asc_request_duration_seconds", "x", []float64{1, 2})
	if got := view(t, reg); got.LatencyMsP99 != 0 || got.LatencyOverflow != 0 {
		t.Errorf("empty p99/overflow = %v/%v, want 0/0", got.LatencyMsP99, got.LatencyOverflow)
	}
	h.Observe(0.5)
	if got := view(t, reg); got.LatencyMsP50 != 1000 {
		t.Errorf("p50 = %v, want 1000", got.LatencyMsP50)
	}
	// 99 of 100 observations past the last bound: p50 and p99 both
	// overflow, clamp to 2 s, and say so.
	for i := 0; i < 99; i++ {
		h.Observe(10)
	}
	got := view(t, reg)
	if got.LatencyMsP50 != 2000 || got.LatencyMsP99 != 2000 {
		t.Errorf("overflowed p50/p99 = %v/%v, want the 2000 ms clamp", got.LatencyMsP50, got.LatencyMsP99)
	}
	if got.LatencyOverflow != 99 {
		t.Errorf("latencyOverflow = %d, want 99", got.LatencyOverflow)
	}
}
