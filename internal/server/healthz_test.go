package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestHealthzDraining is the regression test for the gateway's ejection
// signal: /healthz must flip to 503 "draining" the moment Shutdown
// begins, not keep answering "ok" while the server refuses work.
func TestHealthzDraining(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	resp, body := httpGet(t, hs.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("before shutdown: got %d %q, want 200 ok", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	resp, body = httpGet(t, hs.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("after shutdown: got %d %q, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(body, "draining") {
		t.Fatalf("after shutdown: body %q does not say draining", body)
	}
}

// TestRequestIDAdoption checks that a well-formed inbound X-Request-Id is
// echoed back (so one id follows a job through gateway and backend logs)
// while hostile or oversized ids are replaced, not reflected.
func TestRequestIDAdoption(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		hs.Close()
	})

	post := func(id string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/run", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}

	if got := post("gw-abc.123_456"); got != "gw-abc.123_456" {
		t.Errorf("well-formed id not adopted: got %q", got)
	}
	if got := post(""); got == "" {
		t.Error("no inbound id: response is missing a generated X-Request-Id")
	}
	for _, bad := range []string{
		"has space",
		"semi;colon",
		`quote"id`,
		strings.Repeat("x", 65),
	} {
		got := post(bad)
		if got == bad {
			t.Errorf("hostile id %q was reflected", bad)
		}
		if got == "" {
			t.Errorf("hostile id %q: no replacement id generated", bad)
		}
	}
}

// TestRequestIDEveryRoute checks the X-Request-Id promise of docs/API.md
// on every route: a response always carries an id, and a valid inbound id
// is echoed. The drain route runs last, since it stops admission.
func TestRequestIDEveryRoute(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		hs.Close()
	})
	run := `{"asm": "halt"}`
	routes := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/run", run},
		{http.MethodPost, "/v1/run", `{`},
		{http.MethodGet, "/v1/run", ""},
		{http.MethodPost, "/v1/batch", `{"jobs": [` + run + `]}`},
		{http.MethodPost, "/v1/sessions", run},
		{http.MethodGet, "/v1/sessions", ""},
		{http.MethodGet, "/v1/sessions/s0123", ""},
		{http.MethodGet, "/v1/sessions/bad%20id", ""},
		{http.MethodPost, "/v1/sessions/s0123/resume", `{}`},
		{http.MethodPost, "/v1/sessions/s0123/checkpoint", ""},
		{http.MethodGet, "/metrics", ""},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/debug/traces", ""},
		{http.MethodPost, "/v1/admin/drain", `{"timeoutMs": 1}`},
	}
	for i, rt := range routes {
		for _, inbound := range []string{"", fmt.Sprintf("rid-%d", i)} {
			req, err := http.NewRequest(rt.method, hs.URL+rt.path, strings.NewReader(rt.body))
			if err != nil {
				t.Fatal(err)
			}
			if inbound != "" {
				req.Header.Set("X-Request-Id", inbound)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
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

// TestDrainBody pins the body rules of POST /v1/admin/drain: an empty
// body drains with the defaults, and a body that is not exactly one JSON
// value is refused like any other request body.
func TestDrainBody(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"empty", "", http.StatusOK},
		{"malformed", `{"timeoutMs":`, http.StatusBadRequest},
		{"trailing data", `{"timeoutMs": 1} {"timeoutMs": 2}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := server.New(server.Config{Workers: 1})
			hs := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s.Shutdown(ctx)
				hs.Close()
			})
			resp, err := http.Post(hs.URL+"/v1/admin/drain", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("drain with body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
			}
		})
	}
}
