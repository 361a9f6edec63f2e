package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestDecodeAllocationBounded posts adversarial canonical bodies to every
// route that decodes one, through Handler(): images of empty rows,
// scalar images of zeros, long arrays under unknown keys, and unknown
// values nested far deeper than any request type. Each body is about
// 256 KiB. The request may allocate at most allocPerByte bytes per body
// byte plus allocSlack, so no body costs out of proportion to the body
// limit. The densest canonical body is an image of empty rows: each "[],"
// (3 bytes) decodes to a 24-byte slice header. Unknown values cost
// nothing beyond the pooled body buffer, and nesting deeper than the
// request type goes to encoding/json, which stops at its own depth limit.
func TestDecodeAllocationBounded(t *testing.T) {
	const (
		size         = 256 << 10
		allocPerByte = 12
		allocSlack   = 256 << 10
	)
	s := server.New(server.Config{
		Workers:        1,
		MaxBodyBytes:   1 << 20,
		DefaultTimeout: 2 * time.Second,
		MaxTimeout:     2 * time.Second,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	h := s.Handler()

	repeat := func(open, elem, close string) string {
		n := (size - len(open) - len(close)) / (len(elem) + 1)
		return open + strings.TrimSuffix(strings.Repeat(elem+",", n), ",") + close
	}
	deep := strings.Repeat("[", size/2) + strings.Repeat("]", size/2)
	members := map[string]string{
		"empty rows":          `"localMem":` + repeat("[", "[]", "]"),
		"zero scalars":        `"scalarMem":` + repeat("[", "0", "]"),
		"unknown numbers":     `"unknown":` + repeat("[", "0", "]"),
		"unknown strings":     `"unknown":` + repeat("[", `"a"`, "]"),
		"unknown empty items": `"unknown":` + repeat("[", "{}", "]"),
		"deep unknown":        `"unknown":` + deep,
	}
	// Each route's body puts the member where that route's request
	// carries a run request.
	routes := []struct{ path, open, close string }{
		{"/v1/run", "{", "}"},
		{"/v1/batch", `{"jobs":[{`, "}]}"},
		{"/v1/sessions", "{", "}"},
		{"/v1/sessions/s0/resume", `{"envelope":{"request":{`, "}}}"},
	}
	for _, rt := range routes {
		for name, member := range members {
			body := []byte(rt.open + member + rt.close)
			post := func() int {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(body)))
				return rec.Code
			}
			if code := post(); code >= 500 {
				t.Fatalf("POST %s (%s): status %d", rt.path, name, code)
			}
			// The least of a few runs: other goroutines' allocations only
			// ever add to one.
			least := uint64(1 << 62)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				post()
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			limit := uint64(allocPerByte*len(body) + allocSlack)
			t.Logf("POST %s (%s): %d B body, %d B allocated (%.1f per byte)", rt.path, name, len(body), least, float64(least)/float64(len(body)))
			if least > limit {
				t.Errorf("POST %s (%s): a %d B body allocated %d B, over the %d B bound", rt.path, name, len(body), least, limit)
			}
		}
	}
}
