package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/client"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/server"
)

// fleet is one workload's serving tier, in process on loopback listeners:
// the servers and gateway the closed loop drives.
type fleet struct {
	servers []*server.Server
	hss     []*httptest.Server
	gw      *gateway.Gateway
	gwHS    *httptest.Server
	// front receives the workload's calls; back is the migration target
	// (wide-session only).
	front, back string
	// sources are the /metrics endpoints whose counters sum to the fleet's.
	sources []string
	tr      *http.Transport
}

// bootFleet starts the serving tier of a workload.
func bootFleet(workload string) (*fleet, error) {
	f := &fleet{tr: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
	}}
	backends := 1
	if workload == "fleet-short" || workload == "wide-session" {
		backends = 2
	}
	var urls []string
	for i := 0; i < backends; i++ {
		// Two deployment settings differ from the defaults. The warm pool
		// parks up to 16 machines (default 2 per worker, 4 here): a gang of
		// 32 lanes and the solo machines its peeled lanes resume on would
		// otherwise evict each other, and a run would land in a thrashing or
		// a warm steady state by chance. Parked session records hold their
		// last envelope (a machine snapshot, over a megabyte at 1024 PEs);
		// the default retention of 1024 records would make peak RSS grow
		// with the window, while a migration exports its envelope right
		// after the session returns, so a few records suffice.
		s := server.New(server.Config{PoolIdle: 16, SessionRetain: 16})
		hs := httptest.NewServer(s.Handler())
		f.servers, f.hss, urls = append(f.servers, s), append(f.hss, hs), append(urls, hs.URL)
	}
	f.front, f.sources = urls[0], urls
	switch workload {
	case "fleet-short":
		gw, err := gateway.New(gateway.Config{Backends: urls})
		if err != nil {
			f.close()
			return nil, err
		}
		f.gw, f.gwHS = gw, httptest.NewServer(gw.Handler())
		f.front = f.gwHS.URL
		// The gateway's default /metrics view carries every backend's
		// samples (labeled by backend) beside its own.
		f.sources = []string{f.gwHS.URL}
	case "wide-session":
		f.back = urls[1]
	}
	return f, nil
}

// client returns a client of base over the fleet's transport, wrapped by
// wrap when non-nil (the traced run's span transport).
func (f *fleet) client(base string, wrap func(http.RoundTripper) http.RoundTripper) *client.Client {
	var rt http.RoundTripper = f.tr
	if wrap != nil {
		rt = wrap(rt)
	}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: rt}))
}

// close stops the gateway, the servers, and their listeners.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.gw != nil {
		f.gw.Shutdown(ctx)
		f.gwHS.Close()
	}
	for i, s := range f.servers {
		s.Shutdown(ctx)
		f.hss[i].Close()
	}
	f.tr.CloseIdleConnections()
}

// counters is a scrape of the fleet's counters, summed over sources, keyed
// by "name" (all samples) and "name{label=value}" (samples carrying that
// label pair).
type counters map[string]float64

// scrape reads and sums the fleet's /metrics expositions.
func (f *fleet) scrape() (counters, error) {
	out := counters{}
	for _, src := range f.sources {
		if err := f.scrapeInto(out, src); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scrapeInto adds the counters of src's /metrics exposition to out.
func (f *fleet) scrapeInto(out counters, src string) error {
	hc := &http.Client{Transport: f.tr, Timeout: 10 * time.Second}
	resp, err := hc.Get(src + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scraping %s: status %d", src, resp.StatusCode)
	}
	fams, err := obs.ParseText(string(body))
	if err != nil {
		return fmt.Errorf("scraping %s: %w", src, err)
	}
	for _, fam := range fams {
		if fam.Type != "counter" {
			continue
		}
		for _, s := range fam.Samples {
			out[s.Name] += s.Value
			for _, l := range s.Labels {
				if l.Name != "backend" && l.Name != "config" {
					out[s.Name+"{"+l.Name+"="+l.Value+"}"] += s.Value
				}
			}
		}
	}
	return nil
}

// delta returns after minus before for every key of after.
func (after counters) delta(before counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the named counters (names may carry a {label=value} filter).
func (c counters) sum(names ...string) float64 {
	var t float64
	for _, n := range names {
		t += c[n]
	}
	return t
}
