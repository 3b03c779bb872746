// Command dyncomp-serve runs the simulation-as-a-service HTTP layer: a
// long-lived process exposing the full engine × scenario matrix as a
// JSON API — synchronous single-point evaluation with a process-wide
// structure-keyed derivation cache, asynchronous design-space sweep jobs
// with server-sent-event progress and cancellation, and introspection /
// metrics endpoints. See docs/SERVING.md for the API reference.
//
//	dyncomp-serve -addr :8080
//	dyncomp-serve -addr 127.0.0.1:0 -job-workers 4 -sweep-workers 8
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/engines
//	curl -s -X POST localhost:8080/v1/run -d '{"scenario":"didactic","params":{"tokens":1000}}'
//
// With -addr host:0 the kernel picks a free port; the bound address is
// printed on stdout as "listening on <addr>" before serving begins, so
// wrappers (tests, scripts) can scrape it.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener
// stops accepting, in-flight HTTP requests get -drain-timeout to finish,
// running sweep jobs are cancelled through their contexts (settling as
// "cancelled" with partial results), and only then does the process
// exit.
package main

import (
	"bytes"
	"context"
	"errors"
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

	"dyncomp/internal/serve"
)

// tokenFlags collects repeated -auth-token token=caller values.
type tokenFlags map[string]string

func (tf tokenFlags) String() string { return fmt.Sprintf("%d tokens", len(tf)) }

func (tf *tokenFlags) Set(v string) error {
	tok, caller, ok := strings.Cut(v, "=")
	if !ok || tok == "" || caller == "" {
		return fmt.Errorf("want token=caller, got %q", v)
	}
	if *tf == nil {
		*tf = tokenFlags{}
	}
	(*tf)[tok] = caller
	return nil
}

// loadTokenFile merges token=caller lines from path into tokens
// (blank lines and # comments skipped).
func loadTokenFile(path string, tokens map[string]string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if tokens == nil {
		tokens = map[string]string{}
	}
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tok, caller, ok := strings.Cut(line, "=")
		if !ok || tok == "" || caller == "" {
			return nil, fmt.Errorf("%s:%d: want token=caller, got %q", path, i+1, line)
		}
		tokens[tok] = caller
	}
	return tokens, nil
}

// registerWorker announces self to a coordinator's POST /v1/workers,
// retrying while the coordinator boots.
func registerWorker(coord, self string) {
	body := fmt.Sprintf(`{"url":%q}`, self)
	client := &http.Client{Timeout: 5 * time.Second}
	for attempt := 0; attempt < 30; attempt++ {
		resp, err := client.Post(coord+"/v1/workers", "application/json",
			bytes.NewReader([]byte(body)))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				fmt.Printf("registered with %s as %s\n", coord, self)
				return
			}
		}
		time.Sleep(500 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "dyncomp-serve: registration with %s never succeeded\n", coord)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:0 picks a free port)")
	jobWorkers := flag.Int("job-workers", 2, "concurrent sweep jobs")
	jobQueue := flag.Int("job-queue", 64, "queued sweep jobs before 429")
	sweepWorkers := flag.Int("sweep-workers", 0, "chunks each sweep job evaluates at a time (0: all processors)")
	batchWidth := flag.Int("batch-width", 0, "default batched-evaluation lane width for sweep jobs (0: per-point)")
	maxPoints := flag.Int("max-grid-points", 100000, "largest accepted sweep grid")
	cacheEntries := flag.Int("cache-entries", 0, "derive-cache LRU bound in shapes (0: default, <0: unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	register := flag.String("register", "", "comma-separated dyncomp-coord base URLs to join as a fleet worker")
	advertise := flag.String("advertise", "", "base URL coordinators reach this worker at (default http://<bound-addr>)")
	var authTokens tokenFlags
	flag.Var(&authTokens, "auth-token", "token=caller bearer credential; repeatable (empty: auth disabled)")
	authTokenFile := flag.String("auth-token-file", "", "file of token=caller lines, one per caller (# comments allowed)")
	quotaJobs := flag.Int("quota-jobs", 0, "concurrently queued-or-running sweep jobs per caller (0: unlimited)")
	quotaPoints := flag.Int("quota-points", 0, "grid points one caller may admit per -quota-window (0: unlimited)")
	quotaWindow := flag.Duration("quota-window", time.Minute, "fixed accounting window for -quota-points")
	maxInFlight := flag.Int("max-inflight", 0, "work requests in flight before shedding with 429 (0: default 512, <0: unlimited)")
	requestTimeout := flag.Duration("request-timeout", 0, "end-to-end deadline per work request (0: unbounded)")
	jobTTL := flag.Duration("job-ttl", 0, "evict settled jobs this long after finishing (0: keep forever)")
	maxJobs := flag.Int("max-jobs", 0, "retained jobs before the oldest settled ones are evicted (0: unbounded)")
	streamWriteTimeout := flag.Duration("stream-write-timeout", 0, "per-write deadline on SSE/NDJSON streams (0: default 30s, <0: off)")
	logRequests := flag.Bool("log", false, "structured request log on stderr")
	flag.Parse()

	tokens := map[string]string(authTokens)
	if *authTokenFile != "" {
		var err error
		if tokens, err = loadTokenFile(*authTokenFile, tokens); err != nil {
			fmt.Fprintf(os.Stderr, "dyncomp-serve: %v\n", err)
			os.Exit(1)
		}
	}
	var logger *slog.Logger
	if *logRequests {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	srv := serve.New(serve.Config{
		JobWorkers:         *jobWorkers,
		JobQueue:           *jobQueue,
		SweepWorkers:       *sweepWorkers,
		SweepBatchWidth:    *batchWidth,
		MaxGridPoints:      *maxPoints,
		CacheEntries:       *cacheEntries,
		AuthTokens:         tokens,
		QuotaJobs:          *quotaJobs,
		QuotaPoints:        *quotaPoints,
		QuotaWindow:        *quotaWindow,
		MaxInFlight:        *maxInFlight,
		RequestTimeout:     *requestTimeout,
		JobTTL:             *jobTTL,
		MaxJobs:            *maxJobs,
		StreamWriteTimeout: *streamWriteTimeout,
		Logger:             logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dyncomp-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("listening on %s\n", ln.Addr())

	// Fleet registration: announce this worker to every coordinator in
	// -register so it joins the distributed sweep fabric (see
	// docs/SERVING.md "Distributed sweeps"). Registration is
	// best-effort with retries — a coordinator that is still booting
	// picks the worker up on a later attempt; a worker that never
	// registers still serves its local API.
	if *register != "" {
		self := *advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		for _, coord := range strings.Split(*register, ",") {
			if coord = strings.TrimSpace(coord); coord == "" {
				continue
			}
			go registerWorker(strings.TrimRight(coord, "/"), self)
		}
	}

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		// The listener failed outright; nothing to drain.
		fmt.Fprintf(os.Stderr, "dyncomp-serve: %v\n", err)
		srv.Close()
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("shutting down")
	// Cancel running jobs first: they settle as "cancelled", which also
	// ends their SSE streams, so the HTTP drain below empties fast.
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dyncomp-serve: shutdown: %v\n", err)
	}
	fmt.Println("bye")
}
