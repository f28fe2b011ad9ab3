// Command qsprd is the long-running QSPR mapping service: an HTTP
// facade over the mapper with per-worker warm simulator state and a
// content-addressed result cache.
//
// Usage:
//
//	qsprd -listen :8080
//	curl -s -d '{"circuit":"[[5,1,3]]"}' localhost:8080/map
//	curl -s localhost:8080/metrics
//
// POST /map takes a JSON request naming a circuit (a registry spec in
// "circuit", or an inline QUALE/OpenQASM 2.0 program in "qasm"), an
// optional "fabric" (quale45x85, small) and the qspr knobs
// (heuristic, backend, m, seed, patience, inner_parallel, noise,
// trace). "backend" selects the target architecture (ion, swap);
// "noise", a params object, scores the mapping so the report's
// metrics carry p_fail. The response is the deterministic mapping
// report — byte-identical to `qspr -report -` for the same inputs. Repeated requests are served
// from the cache (X-Cache: hit); a full queue answers 429 with
// Retry-After. GET /metrics exposes counters, cache hit rate, queue
// depth and latency quantiles; GET /healthz is the liveness probe.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// main arms the drain before run announces readiness, so a supervisor
// may send SIGTERM as soon as it reads the "listening on" line. Once
// the first signal has started the drain, a second one kills the
// process the default way.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until ctx is cancelled, then drains in-flight requests.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qsprd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen  = fs.String("listen", ":8080", "address to serve HTTP on")
		workers = fs.Int("workers", 2, "warm mapper pool size (concurrent mappings)")
		queue   = fs.Int("queue", 64, "requests that may wait for a mapper before 429")
		entries = fs.Int("cache", 1024, "result cache entries per tier (FIFO eviction)")
		budget  = fs.Int("budget", 0, "total CPU budget shared by all workers (0 = workers, i.e. sequential mappings)")
		mapTO   = fs.Duration("map-timeout", 0, "per-request mapping deadline; past it the request answers 504 (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	srv := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *entries,
		Budget:       *budget,
		MapTimeout:   *mapTO,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "qsprd:", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	// The listener is up before the address is announced, so scripts
	// may treat this line as "ready".
	fmt.Fprintf(stdout, "qsprd: listening on %s\n", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "qsprd:", err)
			return 1
		}
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(stderr, "qsprd: shutdown:", err)
			return 1
		}
		fmt.Fprintln(stdout, "qsprd: drained, bye")
	}
	return 0
}
