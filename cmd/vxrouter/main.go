// Command vxrouter is the fault-tolerant front end over a fleet of
// vxad shards: it routes requests by rendezvous hashing on decoder
// content hashes (keeping each shard's snapshot cache hot and small),
// tracks per-backend health with readyz polling and circuit breakers,
// retries idempotent requests across the ring with backoff and jitter,
// hedges stragglers, and fails over only before the first response
// byte — after that a broken stream is truncated honestly. See the
// README's "Fleet" section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vxa/internal/breaker"
	"vxa/internal/fault"
	"vxa/internal/router"
)

func main() {
	httpAddr := flag.String("http", "127.0.0.1:7787", "HTTP listen address")
	backends := flag.String("backends", "", `comma-separated vxad shard endpoints ("host:port" or "unix:/path"); required`)
	attempts := flag.Int("attempts", router.DefaultMaxAttempts, "max attempts per request (first try + retries + hedge)")
	retryBackoff := flag.Duration("retry-backoff", router.DefaultRetryBackoff, "base retry backoff (doubled per attempt, jittered)")
	hedgeDelay := flag.Duration("hedge", 0, "hedge a second attempt after this delay (0 = adaptive p99, negative = off)")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes (0 = default 1 GiB)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures opening a backend's breaker (0 = default, negative = off)")
	pollInterval := flag.Duration("poll-interval", 0, "backend /readyz poll period (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
	quiet := flag.Bool("quiet", false, "log warnings only")
	faultSpec := flag.String("fault", "", `arm deterministic fault injection, e.g. "rate=0.05,seed=1,points=dial+netread" (also via VXA_FAULT; testing only)`)
	flag.Parse()

	var fleet []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			fleet = append(fleet, b)
		}
	}
	if len(fleet) == 0 {
		fatal(fmt.Errorf("no backends: set -backends host:port[,host:port...]"))
	}

	spec := *faultSpec
	if spec == "" {
		spec = os.Getenv("VXA_FAULT")
	}
	if spec != "" {
		if err := fault.ArmFromSpec(spec); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vxrouter: FAULT INJECTION ARMED (%s)\n", spec)
	}

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	rt, err := router.New(router.Config{
		Backends:        fleet,
		MaxAttempts:     *attempts,
		RetryBackoff:    *retryBackoff,
		HedgeDelay:      *hedgeDelay,
		MaxRequestBytes: *maxBody,
		Health: router.HealthConfig{
			Config:       breaker.Config{Threshold: *breakerThreshold},
			PollInterval: *pollInterval,
		},
		Logger: logger,
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: rt}

	errc := make(chan error, 1)
	fmt.Fprintf(os.Stderr, "vxrouter: fleet %s\n", strings.Join(fleet, " "))
	// CI's smoke jobs scrape this exact line for the bound address; keep
	// it to the bare URL.
	fmt.Fprintf(os.Stderr, "vxrouter: listening on http://%s\n", ln.Addr())
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	case <-sig:
		// Drain: flip /readyz so upstream balancers stop sending work,
		// then let in-flight proxied requests finish within the budget.
		// The shards own their streams; the router has nothing to cut
		// beyond its client connections.
		fmt.Fprintln(os.Stderr, "vxrouter: draining")
		rt.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		hs.Shutdown(ctx)
		cancel()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxrouter:", err)
	os.Exit(1)
}
