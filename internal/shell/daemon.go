package shell

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is the process around a tier, the same for ascd and ascgw: its
// listen address, drain budget and logging flags, and its lifecycle.
type Daemon struct {
	Addr                string
	DrainTimeout        time.Duration
	LogLevel, LogFormat string
}

// Parse registers -addr (default addr), -drain-timeout, -log-level and
// -log-format beside the tier's own flags on fs, and parses args,
// refusing positional arguments with usage.
func (d *Daemon) Parse(fs *flag.FlagSet, args []string, addr, usage string) error {
	fs.StringVar(&d.Addr, "addr", addr, "listen address")
	fs.DurationVar(&d.DrainTimeout, "drain-timeout", 30*time.Second, "shutdown drain budget")
	fs.StringVar(&d.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&d.LogFormat, "log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(fs.Output(), "usage: "+usage)
		fs.PrintDefaults()
		return errors.New("unexpected arguments")
	}
	return nil
}

// Tier is a serving core: server.Server or gateway.Gateway.
type Tier interface {
	Handler() http.Handler
	// Shutdown stops admission and drains admitted work within ctx.
	Shutdown(ctx context.Context) error
}

// Run is a serving binary's whole life past parseErr, the outcome of
// Parse: it builds the logger and, with it, the tier, serves the tier on
// Addr until SIGINT or SIGTERM, then drains the tier before it shuts HTTP
// down, both within DrainTimeout; new submissions get 503 throughout the
// drain. It returns the exit status: 0 after -h, 2 for bad settings, 1
// when serving fails, else 0.
func (d *Daemon) Run(name string, parseErr error, build func(*slog.Logger) (Tier, error)) int {
	if errors.Is(parseErr, flag.ErrHelp) {
		return 0
	}
	if parseErr != nil {
		return 2
	}
	log, err := d.logger()
	var t Tier
	if err == nil {
		t, err = build(log)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 2
	}
	hs := &http.Server{
		Addr:    d.Addr,
		Handler: t.Handler(),
		// Slow-client guards: a stalled peer must not pin a connection
		// goroutine forever (slowloris). No WriteTimeout: responses
		// legitimately take up to the simulation wall-clock limit.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", d.Addr)
		errCh <- hs.ListenAndServe()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Error("serve failed", "error", err.Error())
		return 1
	case s := <-sig:
		log.Info("draining", "signal", s.String(), "budget", d.DrainTimeout.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), d.DrainTimeout)
	defer cancel()
	// Drain the tier first so every admitted request completes, then
	// close the HTTP side.
	if err := t.Shutdown(ctx); err != nil {
		log.Error("drain incomplete", "error", err.Error())
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Error("http shutdown", "error", err.Error())
	}
	log.Info("drained, bye")
	return 0
}

// logger builds the slog logger the log flags name, writing to stderr.
func (d *Daemon) logger() (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(d.LogLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", d.LogLevel, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch d.LogFormat {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", d.LogFormat)
	}
}
