// asctrace pretty-prints distributed traces captured by ascd and ascgw as
// text waterfalls: one line per span, indented by parent, with a duration
// bar, offsets, attributes, and errors. Point it at a /debug/traces
// endpoint (the gateway's stitches both tiers into one tree when given
// ?trace=<id>), a saved JSON dump, or stdin.
//
// Usage:
//
//	asctrace [flags] [SOURCE]
//
//	SOURCE            a /debug/traces URL (http:// or https://), a file
//	                  path, or "-" for stdin (default "-")
//	-trace ID         fetch/show only this trace id (appended to URL
//	                  sources as ?trace=<id>, filtered locally otherwise)
//	-error            show only errored traces
//	-min-ms F         show only traces at least this long
//
// Examples:
//
//	asctrace http://localhost:8641/debug/traces            # newest traces
//	asctrace -trace 4bf9...4736 http://localhost:8641/debug/traces
//	curl -s localhost:8642/debug/traces | asctrace
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/dtrace"
	"repro/internal/wire"
)

// maxDump bounds a trace dump fetched from a URL, in bytes.
const maxDump = 64 << 20

func main() {
	traceID := flag.String("trace", "", "show only this trace id")
	errorOnly := flag.Bool("error", false, "show only errored traces")
	minMs := flag.Float64("min-ms", 0, "show only traces at least this many milliseconds long")
	flag.Parse()
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: asctrace [flags] [URL|FILE|-]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src := "-"
	if flag.NArg() == 1 {
		src = flag.Arg(0)
	}

	data, err := read(src, *traceID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asctrace: %v\n", err)
		os.Exit(1)
	}
	var dump dtrace.TraceDump
	if err := json.Unmarshal(data, &dump); err != nil {
		fmt.Fprintf(os.Stderr, "asctrace: decoding trace dump: %v\n", err)
		os.Exit(1)
	}

	shown := 0
	for _, t := range dump.Traces {
		if t == nil {
			continue
		}
		if *traceID != "" && t.TraceID != *traceID {
			continue
		}
		if *errorOnly && !t.Error {
			continue
		}
		if t.DurationMs < *minMs {
			continue
		}
		if shown > 0 {
			fmt.Println()
		}
		fmt.Print(dtrace.Waterfall(t))
		shown++
	}
	if shown == 0 {
		fmt.Println("no matching traces")
		os.Exit(1)
	}
}

// read loads the trace dump from a URL, a file, or stdin. URL sources get
// the trace filter pushed server-side so a gateway source stitches the
// fleet-wide trace instead of listing only its own half.
func read(src, traceID string) ([]byte, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		u := src
		if traceID != "" && !strings.Contains(u, "trace=") {
			sep := "?"
			if strings.Contains(u, "?") {
				sep = "&"
			}
			u += sep + "trace=" + url.QueryEscape(traceID)
		}
		hc := &http.Client{Timeout: 30 * time.Second}
		resp, err := hc.Get(u)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		// The CLI keeps the dump until it exits, so the body is never
		// released to the pool.
		body, err := wire.ReadBody(resp.Body, resp.ContentLength, maxDump)
		var tooLarge *wire.TooLargeError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("GET %s: trace dump larger than %d bytes", u, maxDump)
		}
		if err != nil {
			return nil, err
		}
		data := body.Bytes()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(data)))
		}
		return data, nil
	}
	if src == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(src)
}
