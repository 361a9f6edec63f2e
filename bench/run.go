package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// The shape of a run is fixed, so every run of every commit measures the
// same thing.
const (
	// clients is the closed loop's caller count: two callers, each blocking
	// on its reply, on a host with at least two CPUs.
	clients = 2
	// setups is how many times a run boots a fleet and makes its warm-up
	// pass; setup_s is their median.
	setups = 3
)

// options are one workload run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64 // timed window
	trace    bool
	deckSize int
	spans    string // traced run: where the spans go
}

// metricValue is one metric of the output contract's last line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// meta records how a run was made.
type meta struct {
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Clients    int     `json:"clients"`
	Setups     int     `json:"setups"`
	DeckSize   int     `json:"deck_size"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head,omitempty"`
	// HostSpeed is the host's speed over the timed window and RefSpeed the
	// reference the host-time metrics are reported at, in calibration chunks
	// per CPU second (see hostspeed.go).
	HostSpeed float64 `json:"host_speed"`
	RefSpeed  float64 `json:"ref_speed"`
}

// result is one workload run's full report. Metric units are those of
// BENCHMARK.json.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Raw holds the host-time metrics at the host's measured speed.
	Raw   map[string]float64     `json:"raw,omitempty"`
	Meta  meta                   `json:"meta"`
	Spans map[string]spanSummary `json:"spans,omitempty"`
	Notes []string               `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

// gitHead is the checked-out commit, or "" outside a git work tree (git
// is not allowed to search above the working directory).
func gitHead() string {
	wd, err := os.Getwd()
	if err != nil {
		return ""
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kb /= 1024 // bytes there
	}
	return kb / 1024
}

// warmUp makes one pass over the deck, every result checked, and returns
// the simulated cycles and instructions the pass served.
func warmUp(ctx context.Context, d *deck, f *fleet, m *hostMeter) (cycles, instrs int64, err error) {
	for _, r := range drive(ctx, newCaller(d, f, m, nil), 0, nil) {
		if r.out.wrong != nil {
			return 0, 0, fmt.Errorf("warm-up pass: wrong result: %w", r.out.wrong)
		}
		if r.out.failed {
			return 0, 0, fmt.Errorf("warm-up pass: call failed: %s", r.out.errText)
		}
		cycles += r.out.model
		instrs += r.out.instrs
	}
	return cycles, instrs, nil
}

// tracedWindows measures the per-layer metrics on f: an untraced and a
// traced half of the window (their throughput ratio is the tracing
// overhead), counter deltas over the traced half, and the layer replays.
func tracedWindows(ctx context.Context, o options, d *deck, f *fleet, m *hostMeter, dur time.Duration, res *result, ws *windowStats) error {
	untraced := timedWindow(ctx, newCaller(d, f, m, nil), dur/2, nil)
	before, err := f.scrape()
	if err != nil {
		return err
	}
	rec := newRecorder()
	c := newCaller(d, f, m, func(rt http.RoundTripper) http.RoundTripper { return spanTransport{rt} })
	c.keepEnvs = 8
	traced := timedWindow(ctx, c, dur/2, rec)
	after, err := f.scrape()
	if err != nil {
		return err
	}
	layers, err := measureLayers(ctx, &layerRun{
		d: d, f: f, untraced: untraced, traced: traced, envs: c.envs,
		delta: after.delta(before), cumulative: after, rec: rec,
	})
	if err != nil {
		return fmt.Errorf("layer measurements: %w", err)
	}
	for name, v := range layers {
		res.set(name, v)
	}
	res.Spans = rec.summarize()
	if o.spans != "" {
		if err := rec.write(o.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	ws.add(untraced)
	ws.add(traced)
	return nil
}

// runWorkload gates, sets up, and measures one workload.
func runWorkload(ctx context.Context, o options) (*result, error) {
	d, err := buildDeck(o.workload, o.seed, o.deckSize)
	if err != nil {
		return nil, err
	}
	if err := gate(d); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	res := &result{
		Workload: o.workload, Correct: true, Metrics: map[string]float64{},
		Meta: meta{
			Seed: o.seed, WindowS: o.seconds, Clients: clients,
			Setups: setups, DeckSize: o.deckSize, Trace: o.trace,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			GoVersion: runtime.Version(), GitHead: gitHead(),
		},
	}

	// Set up several times over: boot a fresh fleet and make one warm-up
	// pass over the deck, the served pass the model statistics come from.
	// An untraced run then measures an equal share of the window on each
	// fleet, so an offset peculiar to one boot (ring placement, heap layout)
	// is one sample among several; a traced run measures on the last fleet.
	// Each set-up is timed at the host speed measured from a calibration
	// burst just before it to its end.
	dur := time.Duration(o.seconds * float64(time.Second))
	meter := newHostMeter()
	var setupS, rawSetupS []float64
	var ws windowStats
	modelCycles, modelInstrs := int64(-1), int64(-1)
	for i := 0; i < setups; i++ {
		b0 := time.Now()
		meter.burst()
		t0 := time.Now()
		f, err := bootFleet(o.workload)
		if err != nil {
			return nil, err
		}
		cycles, instrs, err := warmUp(ctx, d, f, meter)
		t1 := time.Now()
		rawSetupS = append(rawSetupS, t1.Sub(t0).Seconds())
		setupS = append(setupS, t1.Sub(t0).Seconds()/slowdown(hostSpeed(meter.between(b0, t1))))
		if err == nil && modelCycles >= 0 && (cycles != modelCycles || instrs != modelInstrs) {
			err = fmt.Errorf("warm-up pass %d served %d cycles / %d instructions, the previous pass %d / %d",
				i+1, cycles, instrs, modelCycles, modelInstrs)
		}
		modelCycles, modelInstrs = cycles, instrs
		switch {
		case err != nil:
		case !o.trace:
			ws.add(timedWindow(ctx, newCaller(d, f, meter, nil), dur/setups, nil))
		case i == setups-1:
			err = tracedWindows(ctx, o, d, f, meter, dur, res, &ws)
		}
		f.close()
		if err != nil {
			return nil, err
		}
	}
	k := ws.slowdown()
	res.Meta.HostSpeed, res.Meta.RefSpeed = hostSpeed(ws.chunks, ws.cpu), refSpeed
	res.set("setup_s", median(setupS))
	res.Raw = map[string]float64{"setup_s": median(rawSetupS)}
	res.set("model_cycles", float64(modelCycles))
	res.set("model_ipc", ratio(float64(modelInstrs), float64(modelCycles)))
	if !o.trace {
		res.Raw["jobs_per_s"] = ws.jobsPerS()
		res.Raw["sim_cycles_per_s"] = ws.cyclesPerS()
		res.Raw["latency_p50_ms"] = ws.latencyMs(0.50)
		res.Raw["latency_p99_ms"] = ws.latencyMs(0.99)
		// A rate scales up with the host's slowdown, a time down.
		res.set("jobs_per_s", res.Raw["jobs_per_s"]*k)
		res.set("sim_cycles_per_s", res.Raw["sim_cycles_per_s"]*k)
		res.set("latency_p50_ms", res.Raw["latency_p50_ms"]/k)
		res.set("latency_p99_ms", res.Raw["latency_p99_ms"]/k)
		res.set("alloc_bytes_per_job", ws.allocPerJob())
		if n := len(ws.latency); n < 1000 {
			res.Notes = append(res.Notes, fmt.Sprintf("latency_p99_ms rests on %d calls (<1000): not valid as a p99", n))
		}
	}
	res.Attempted, res.Failed = ws.calls, ws.failed
	if ws.wrong != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "wrong result: "+ws.wrong.Error())
	}
	res.set("max_rss_mb", maxRSSMB())
	return res, nil
}
