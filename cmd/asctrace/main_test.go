package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadRefusesOversizedDump: a dump one byte over maxDump is an explicit
// size error, not a truncated body that fails later as bad JSON.
func TestReadRefusesOversizedDump(t *testing.T) {
	chunk := bytes.Repeat([]byte{' '}, 1<<20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Streamed without a Content-Length, so only the read itself
		// can tell the dump is too large.
		for n := 0; n < maxDump; n += len(chunk) {
			w.Write(chunk)
		}
		w.Write([]byte{'x'})
	}))
	defer srv.Close()
	data, err := read(srv.URL, "")
	want := fmt.Sprintf("trace dump larger than %d bytes", maxDump)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("read of a %d-byte dump: %d bytes, error %v; want an error containing %q", maxDump+1, len(data), err, want)
	}
}

// TestReadAcceptsSmallDump: a URL dump within the limit reads whole.
func TestReadAcceptsSmallDump(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"traces":[]}`)
	}))
	defer srv.Close()
	data, err := read(srv.URL, "")
	if err != nil || string(data) != `{"traces":[]}` {
		t.Fatalf("read = %q, %v", data, err)
	}
}
