package gateway_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/migrate"
)

// hostileBody is one request that reaches a tier's program digest or
// arch key before any validation.
type hostileBody struct {
	path string
	body []byte
}

// hugePEBodies are run, batch, session and resume bodies whose machine
// has more than 2^62 PEs. The resume carries a hand-built envelope sealed
// with migrate.Seal, as any client can mint one. Deriving the tree depths
// of such a machine once wrapped a power past MaxInt and spun forever.
func hugePEBodies(t testing.TB) []hostileBody {
	var out []hostileBody
	for _, pes := range []int{1<<62 + 1, math.MaxInt} {
		job := client.RunRequest{Asm: "halt", Config: client.MachineConfig{PEs: pes}}
		env := &client.SnapshotEnvelope{
			Version:         migrate.Version,
			SessionID:       "s1",
			Digest:          strings.Repeat("a", 64),
			ConfigKey:       "forged",
			Request:         job,
			RemainingCycles: 1,
		}
		migrate.Seal(env)
		for path, v := range map[string]any{
			"/v1/run":                job,
			"/v1/batch":              client.BatchRequest{Jobs: []client.RunRequest{job}},
			"/v1/sessions":           client.SessionRequest{RunRequest: job, Resumable: true},
			"/v1/sessions/s1/resume": client.ResumeRequest{Envelope: env},
		} {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, hostileBody{path, b})
		}
	}
	return out
}

// postWithin serves one POST on h and returns the recorder, or nil when
// h has not answered within d. A handler that never returns is left
// running: waiting on it (or closing a server it holds) would hang.
func postWithin(h http.Handler, path string, body []byte, d time.Duration) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
	}()
	select {
	case <-done:
		return rec
	case <-time.After(d):
		return nil
	}
}

// typedAnswer checks that rec is a v1 JSON answer: an {"error": ...} body
// on a non-2xx status, a JSON value otherwise.
func typedAnswer(rec *httptest.ResponseRecorder) error {
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		return fmt.Errorf("status %d with Content-Type %q: %s", rec.Code, ct, rec.Body)
	}
	if rec.Code/100 == 2 {
		if !json.Valid(rec.Body.Bytes()) {
			return fmt.Errorf("status %d with a body that is not JSON: %s", rec.Code, rec.Body)
		}
		return nil
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		return fmt.Errorf("status %d without an error text: %s", rec.Code, rec.Body)
	}
	return nil
}

// TestHugePEBodiesAnswerTyped: every huge-PE body draws a typed 4xx (a
// batch: 200 with a per-job 400) from ascd and from ascgw in front of it,
// within a deadline.
func TestHugePEBodiesAnswerTyped(t *testing.T) {
	f := newFleet(t, 1, nil)
	for _, tier := range []struct {
		name string
		h    http.Handler
	}{{"ascd", f.nodes[0].core.Handler()}, {"ascgw", f.gw.Handler()}} {
		for _, hb := range hugePEBodies(t) {
			rec := postWithin(tier.h, hb.path, hb.body, 5*time.Second)
			if rec == nil {
				t.Errorf("%s %s: no answer within 5s", tier.name, hb.path)
				continue
			}
			if err := typedAnswer(rec); err != nil {
				t.Errorf("%s %s: %v", tier.name, hb.path, err)
				continue
			}
			status := rec.Code
			if hb.path == "/v1/batch" && status == http.StatusOK {
				var res client.BatchResult
				if json.Unmarshal(rec.Body.Bytes(), &res) != nil || len(res.Jobs) != 1 {
					t.Errorf("%s %s: malformed batch answer: %s", tier.name, hb.path, rec.Body)
					continue
				}
				status = res.Jobs[0].Status
			}
			if status != http.StatusBadRequest && status != http.StatusConflict {
				t.Errorf("%s %s: status %d, want 400 or 409: %s", tier.name, hb.path, status, rec.Body)
			}
		}
	}
}
