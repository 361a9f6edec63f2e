package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/client"
)

// longSessionJob builds an ASCL job that runs ~15*iters cycles before
// halting — long enough that a backend drain lands mid-run — with
// iters*28 in scalar word 0. Varying iters varies the program digest, so
// concurrent sessions route independently.
func longSessionJob(iters int) (client.RunRequest, int64) {
	src := fmt.Sprintf(`
		scalar n = %d;
		scalar acc = 0;
		parallel v = idx();
		while (n > 0) {
			acc = acc + sumval(v);
			n = n - 1;
		}
		write(0, acc);
	`, iters)
	return client.RunRequest{
		ASCL:       src,
		Config:     client.MachineConfig{PEs: 8, Width: 32},
		DumpScalar: 1,
	}, int64(iters) * 28
}

func postAdminDrain(t *testing.T, gwURL, backend string) client.DrainBackendResult {
	t.Helper()
	body, _ := json.Marshal(client.DrainBackendRequest{Backend: backend})
	resp, err := http.Post(gwURL+"/v1/admin/drain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("admin drain: %v", err)
	}
	defer resp.Body.Close()
	var out client.DrainBackendResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("admin drain: decoding: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin drain: status %d", resp.StatusCode)
	}
	return out
}

// runningSessionsOn counts running sessions on one backend's registry.
func runningSessionsOn(t *testing.T, backendURL string) int {
	t.Helper()
	resp, err := http.Get(backendURL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list client.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, st := range list.Sessions {
		if st.State == "running" {
			n++
		}
	}
	return n
}

// TestGatewaySessionMigration is the fleet-level acceptance test: kill
// (drain) a backend under live session traffic and every session must
// complete through its ring successor with zero client-visible failures
// and final state digests identical to uninterrupted runs.
func TestGatewaySessionMigration(t *testing.T) {
	f := newFleet(t, 2, nil)
	ctx := context.Background()

	// Three session variants with distinct digests. First run each to
	// completion uninterrupted (through the gateway) to capture the
	// reference state digests the migrated runs must reproduce.
	const variants = 3
	reqs := make([]client.RunRequest, variants)
	wants := make([]int64, variants)
	refDigests := make([]string, variants)
	for i := 0; i < variants; i++ {
		// Sized so a drain still lands mid-run now that the block plane
		// simulates this single-threaded reduction loop several times
		// faster in wall-clock.
		reqs[i], wants[i] = longSessionJob(600_000 + 7*i)
		reqs[i].StateDigest = true
		// Two of these sharing a backend's CPUs with the race detector on
		// and another package's tests running can outlast ascd's 30 s
		// default wall-clock limit; ask for the 2 min cap instead.
		reqs[i].TimeoutMs = 120_000
		res, err := f.c.NewSession(reqs[i]).Run(ctx)
		if err != nil {
			t.Fatalf("uninterrupted reference %d: %v", i, err)
		}
		if res.State != "completed" || res.Result.ScalarMem[0] != wants[i] {
			t.Fatalf("reference %d: %+v", i, res)
		}
		refDigests[i] = res.StateDigest
	}

	// Live phase: the same three sessions in flight concurrently. The
	// drain may move two of them onto a survivor whose two session slots
	// (Workers: 2) are then full; the gateway holds the third until a slot
	// frees, and the client, which sets no timeout, waits for it.
	type outcome struct {
		i   int
		res *client.SessionResult
		err error
	}
	done := make(chan outcome, variants)
	for i := 0; i < variants; i++ {
		go func(i int) {
			res, err := f.c.NewSession(reqs[i]).Run(ctx)
			done <- outcome{i, res, err}
		}(i)
	}

	// Wait until at least one backend is actually executing sessions, then
	// drain it mid-flight.
	var victim string
	deadline := time.Now().Add(10 * time.Second)
	for victim == "" && time.Now().Before(deadline) {
		for _, nd := range f.nodes {
			if runningSessionsOn(t, nd.hs.URL) > 0 {
				victim = nd.hs.URL
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if victim == "" {
		t.Fatal("no backend ever reported a running session")
	}
	dr := postAdminDrain(t, f.gwHS.URL, victim)
	if !dr.Drained || dr.Backend != victim {
		t.Fatalf("drain result %+v", dr)
	}
	if dr.Failed != 0 {
		t.Fatalf("drain walk failed %d sessions: %+v", dr.Failed, dr.Sessions)
	}

	// Zero client-visible failures; every result byte-identical to the
	// uninterrupted reference.
	for n := 0; n < variants; n++ {
		out := <-done
		if out.err != nil {
			t.Fatalf("session %d failed across the drain: %v", out.i, out.err)
		}
		if out.res.State != "completed" {
			t.Fatalf("session %d state %q, want completed", out.i, out.res.State)
		}
		if got := out.res.Result.ScalarMem[0]; got != wants[out.i] {
			t.Errorf("session %d result %d, want %d", out.i, got, wants[out.i])
		}
		if out.res.StateDigest != refDigests[out.i] {
			t.Errorf("session %d state digest %s, want %s (uninterrupted)",
				out.i, out.res.StateDigest, refDigests[out.i])
		}
	}

	// The gateway carried at least one live session across the drain and
	// says so on its instrument panel.
	if got := promSum(t, f.gwHS.URL, "asc_migrations_total"); got < 1 {
		t.Errorf("asc_migrations_total = %v, want >= 1", got)
	}
	resp, err := http.Get(f.gwHS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(expo), "asc_migration_duration_seconds_count") {
		t.Error("asc_migration_duration_seconds is not exported")
	}

	// A drained backend is out of the candidate set: new sessions still
	// complete, necessarily on the survivor.
	req, want := longSessionJob(500)
	res, err := f.c.NewSession(req).Run(ctx)
	if err != nil || res.State != "completed" || res.Result.ScalarMem[0] != want {
		t.Fatalf("post-drain session: res %+v err %v", res, err)
	}
}

// TestGatewaySessionStatusRouting pins the session→backend routing table:
// GET /v1/sessions/{id} through the gateway reaches the backend that ran
// the session, and unknown ids 404.
func TestGatewaySessionStatusRouting(t *testing.T) {
	f := newFleet(t, 2, nil)
	req, want := longSessionJob(500)
	res, err := f.c.NewSession(req).Run(context.Background())
	if err != nil || res.State != "completed" {
		t.Fatalf("session: res %+v err %v", res, err)
	}
	_ = want

	resp, err := http.Get(f.gwHS.URL + "/v1/sessions/" + res.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status routing: %d", resp.StatusCode)
	}
	var st client.SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SessionID != res.SessionID || st.State != "completed" {
		t.Errorf("routed status %+v", st)
	}

	resp2, err := http.Get(f.gwHS.URL + "/v1/sessions/s-never-routed")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp2.StatusCode)
	}

	// The fleet-wide list shows the parked record.
	resp3, err := http.Get(f.gwHS.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var list client.SessionList
	if err := json.NewDecoder(resp3.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range list.Sessions {
		found = found || s.SessionID == res.SessionID
	}
	if !found {
		t.Error("fleet session list does not include the completed session")
	}
}

// TestGatewaySessionIDRule: the gateway applies ascd's session id rule
// before any backend hop, so an id ascd would reject — here one whose
// escaped '?' would smuggle a query into the forwarded URL — is a 404
// "unknown session", not a forwarded request and a failed migration.
func TestGatewaySessionIDRule(t *testing.T) {
	f := newFleet(t, 2, nil)
	const sid = "abc?x=1"
	req, _ := longSessionJob(10)
	body, err := json.Marshal(&client.ResumeRequest{Envelope: &client.SnapshotEnvelope{SessionID: sid, Request: req}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.gwHS.URL+"/v1/sessions/abc%3Fx=1/resume", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("resume of id %q: status %d, want 404", sid, resp.StatusCode)
	}
	if got := promSum(t, f.gwHS.URL, "asc_migrations_total"); got != 0 {
		t.Errorf("asc_migrations_total = %v, want 0 (no hop was made)", got)
	}
}
