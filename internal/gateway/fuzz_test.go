package gateway_test

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/server"
)

// gatewayRoutes are the gateway's body-decoding routes with the statuses
// docs/SERVER.md documents for each on ascd, which the gateway relays,
// plus the gateway's own 429 (at capacity) and 503 (shed).
var gatewayRoutes = []struct {
	path   string
	status []int
}{
	{"/v1/run", []int{200, 400, 422, 429, 503, 504}},
	{"/v1/batch", []int{200, 400, 429, 503}},
	{"/v1/sessions", []int{200, 400, 404, 409, 422, 429, 503, 504}},
	{"/v1/sessions/{id}/resume", []int{200, 400, 404, 409, 422, 429, 503, 504}},
}

// FuzzGateway posts arbitrary bodies to every body-decoding route of
// ascgw in front of a live ascd with small cycle, footprint, and body
// limits. Every call must end within a deadline in a typed JSON answer
// (a JSON value on 2xx, {"error": ...} otherwise) with a status the route
// documents. A resume goes to the path of the body's envelope session id
// when that id is valid.
func FuzzGateway(f *testing.F) {
	core := server.New(server.Config{
		Workers:           2,
		QueueDepth:        2,
		MaxCycles:         20_000,
		MaxFootprintWords: 1 << 16,
		MaxBodyBytes:      1 << 16,
		BatchMaxJobs:      4,
		DefaultTimeout:    2 * time.Second,
		MaxTimeout:        2 * time.Second,
	})
	hs := httptest.NewServer(core.Handler())
	gw, err := gateway.New(gateway.Config{
		Backends:            []string{hs.URL},
		MaxBodyBytes:        1 << 16,
		BackendBatchMaxJobs: 4,
		Logger:              slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	h := gw.Handler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		core.Shutdown(ctx)
		hs.Close()
	})

	for _, hb := range hugePEBodies(f) {
		f.Add(hb.body)
	}
	job, _ := sumJob(4, []int64{1, 2, 3, 4})
	for _, seed := range []any{
		job,
		client.RunRequest{},
		client.RunRequest{ASCL: "parallel = ;"},
		client.BatchRequest{Jobs: []client.RunRequest{job, job}},
		client.SessionRequest{RunRequest: job, Resumable: true},
		client.ResumeRequest{},
	} {
		b, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{`))
	// A same-program batch with one job whose local-memory row outgrows a
	// PE's local memory, and two jobs whose .data image outgrows scalar
	// memory.
	small := job
	small.Config.LocalMemWords = 8
	overlong := small
	overlong.LocalMem = [][]int64{{1}, make([]int64, 9)}
	bigData := client.RunRequest{Asm: ".data\n.word " + strings.Repeat("0, ", 4096) + "0\n.text\nhalt\n",
		Config: client.MachineConfig{PEs: 4}}
	for _, seed := range []any{
		client.BatchRequest{Jobs: []client.RunRequest{small, small, overlong, small}},
		client.BatchRequest{Jobs: []client.RunRequest{bigData, bigData}},
	} {
		b, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range gatewayRoutes {
			path := rt.path
			if path == "/v1/sessions/{id}/resume" {
				var probe struct {
					Envelope struct {
						SessionID string `json:"sessionId"`
					} `json:"envelope"`
				}
				id := "s0"
				if json.Unmarshal(body, &probe) == nil && dtrace.ValidID(probe.Envelope.SessionID) {
					id = probe.Envelope.SessionID
				}
				path = "/v1/sessions/" + id + "/resume"
			}
			rec := postWithin(h, path, body, 10*time.Second)
			if rec == nil {
				t.Fatalf("POST %s: no answer within 10s", path)
			}
			if err := typedAnswer(rec); err != nil {
				t.Errorf("POST %s: %v", path, err)
			}
			documented := false
			for _, s := range rt.status {
				documented = documented || s == rec.Code
			}
			if !documented {
				t.Errorf("POST %s answered %d, not a status the route documents: %s", path, rec.Code, rec.Body)
			}
		}
	})
}
