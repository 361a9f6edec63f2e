package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/dtrace"
	"repro/internal/migrate"
	"repro/internal/server"
)

// fuzzRoutes are the request-decoding routes with the statuses
// docs/SERVER.md documents for each: /v1/run's table, the batch's
// whole-batch errors, and for sessions /v1/run's table plus the
// session-specific statuses.
var fuzzRoutes = []struct {
	path   string
	status map[int]bool
}{
	{"/v1/run", statuses(200, 400, 422, 429, 503, 504)},
	{"/v1/batch", statuses(200, 400, 429, 503)},
	{"/v1/sessions", statuses(200, 400, 404, 409, 422, 429, 503, 504)},
	{"/v1/sessions/{id}/resume", statuses(200, 400, 404, 409, 422, 429, 503, 504)},
}

func statuses(codes ...int) map[int]bool {
	m := make(map[int]bool, len(codes))
	for _, c := range codes {
		m[c] = true
	}
	return m
}

// FuzzRequest posts arbitrary bodies to every route that decodes one, on
// a server with small cycle, footprint, and body limits. No body may
// panic the server or draw a 500, and every status must be one
// docs/SERVER.md documents for the route. A resume goes to the path of
// the body's envelope session id when that id is valid, so well-formed
// envelopes reach the resume path.
func FuzzRequest(f *testing.F) {
	s := server.New(server.Config{
		Workers:           2,
		QueueDepth:        2,
		MaxCycles:         20_000,
		MaxFootprintWords: 1 << 16,
		MaxBodyBytes:      1 << 16,
		BatchMaxJobs:      4,
		DefaultTimeout:    2 * time.Second,
		MaxTimeout:        2 * time.Second,
	})
	h := s.Handler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}

	// Seeds: the request bodies the server tests send, plus an envelope
	// minted by a periodically checkpointed session.
	sum, _ := sumRequest([]int64{1, 2, 3, 4})
	long, _ := longSession(1000)
	long.Config = client.MachineConfig{PEs: 4, Threads: 2, Width: 32, LocalMemWords: 16} // an envelope under MaxBodyBytes
	hugeMachine := client.RunRequest{Asm: "halt", Config: client.MachineConfig{PEs: 1 << 24, LocalMemWords: 1 << 16}}
	seeds := []any{
		sum,
		spinRequest(100),
		client.RunRequest{},
		client.RunRequest{ASCL: "x", Asm: "y"},
		client.RunRequest{Asm: "halt", MaxCycles: -1},
		client.RunRequest{ASCL: "parallel = ;"},
		hugeMachine,
		client.BatchRequest{Jobs: []client.RunRequest{sum, sum, spinRequest(0)}},
		client.BatchRequest{Jobs: []client.RunRequest{sum, hugeMachine}, TimeoutMs: 50},
		client.BatchRequest{},
		client.SessionRequest{RunRequest: sum},
		client.SessionRequest{RunRequest: long, Resumable: true, CheckpointEveryCycles: 4096},
		client.SessionRequest{RunRequest: sum, CheckpointEveryCycles: -1},
		client.SessionRequest{RunRequest: client.RunRequest{Asm: "halt", Trace: true}, Resumable: true},
		client.ResumeRequest{},
	}
	rec := post("/v1/sessions", mustJSON(f, client.SessionRequest{RunRequest: long, Resumable: true, CheckpointEveryCycles: 4096}))
	var done client.SessionResult
	if err := json.Unmarshal(rec.Body.Bytes(), &done); err != nil || done.SessionID == "" {
		f.Fatalf("seed session: status %d: %s", rec.Code, rec.Body)
	}
	var st client.SessionStatus
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+done.SessionID, nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Envelope == nil {
		f.Fatalf("seed session %s exported no envelope: %s", done.SessionID, rec.Body)
	}
	seeds = append(seeds, client.ResumeRequest{Envelope: st.Envelope})
	for _, seed := range seeds {
		f.Add(mustJSON(f, seed))
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`{"jobs": [{"asm": "halt"}], "timeoutMs": -1}`))
	// A machine of more than 2^62 PEs, in each body and in an envelope
	// sealed as any client can seal one: its tree depths must not spin.
	huge := client.RunRequest{Asm: "halt", Config: client.MachineConfig{PEs: 1<<62 + 1}}
	env := &client.SnapshotEnvelope{Version: migrate.Version, SessionID: "s1",
		Digest: strings.Repeat("a", 64), ConfigKey: "forged", Request: huge, RemainingCycles: 1}
	migrate.Seal(env)
	for _, seed := range []any{
		huge,
		client.BatchRequest{Jobs: []client.RunRequest{huge}},
		client.SessionRequest{RunRequest: huge, Resumable: true},
		client.ResumeRequest{Envelope: env},
	} {
		f.Add(mustJSON(f, seed))
	}
	// A same-program batch with one job whose local-memory row outgrows a
	// PE's local memory, and two jobs whose .data image outgrows scalar
	// memory.
	small := sum
	small.Config.LocalMemWords = 8
	overlong := small
	overlong.LocalMem = [][]int64{{1}, make([]int64, 9)}
	bigData := client.RunRequest{Asm: ".data\n.word " + strings.Repeat("0, ", 4096) + "0\n.text\nhalt\n",
		Config: client.MachineConfig{PEs: 4}}
	for _, seed := range []any{
		client.BatchRequest{Jobs: []client.RunRequest{small, small, overlong, small}},
		client.BatchRequest{Jobs: []client.RunRequest{bigData, bigData}},
	} {
		f.Add(mustJSON(f, seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range fuzzRoutes {
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
			rec := post(path, body)
			if !rt.status[rec.Code] {
				t.Errorf("POST %s answered %d, not a status docs/SERVER.md documents for it: %s", path, rec.Code, rec.Body)
			}
		}
	})
}

func mustJSON(f *testing.F, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return b
}
