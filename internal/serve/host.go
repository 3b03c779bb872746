package serve

// The front end both servers share: this package's Server and the
// internal/shard Coordinator embed one Host, which owns the job table
// and its janitor, the metrics registry, the shutdown order, the
// outermost AccessLog wrap and the job routes. JSON handlers of both
// have one shape, JSONHandler, and one error writer.

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// Host is the job-serving front end a server embeds.
type Host struct {
	jobs    *JobTable
	Metrics *Registry
	Mux     *http.ServeMux
	// Ctx is cancelled by Close; every job and background loop derives
	// from it and is counted in WG, which Close waits for.
	Ctx  context.Context
	WG   sync.WaitGroup
	stop context.CancelFunc

	prefix       string // metric family prefix, e.g. "dyncomp_serve"
	logger       *slog.Logger
	writeTimeout time.Duration
}

// NewHost returns a host whose evictions and recovered panics count
// into the prefix+"_jobs_evicted_total" and prefix+"_panics_total"
// counters, which the embedder declares on Metrics. onEvict, when
// non-nil, runs after every eviction; writeTimeout bounds each write on
// the job event stream (0: unbounded).
func NewHost(prefix string, logger *slog.Logger, writeTimeout time.Duration, onEvict func()) *Host {
	ctx, stop := context.WithCancel(context.Background())
	h := &Host{
		Metrics:      NewRegistry(),
		Mux:          http.NewServeMux(),
		Ctx:          ctx,
		stop:         stop,
		prefix:       prefix,
		logger:       logger,
		writeTimeout: writeTimeout,
	}
	h.jobs = newJobTable(func(n int) {
		h.Metrics.Add(prefix+"_jobs_evicted_total", "", int64(n))
		if onEvict != nil {
			onEvict()
		}
	})
	return h
}

// Jobs returns the job table.
func (h *Host) Jobs() *JobTable { return h.jobs }

// StartJanitor evicts settled jobs past ttl or beyond maxJobs until
// Close; with neither bound set it does nothing.
func (h *Host) StartJanitor(ttl time.Duration, maxJobs int) {
	if ttl <= 0 && maxJobs <= 0 {
		return
	}
	h.WG.Add(1)
	go func() {
		defer h.WG.Done()
		h.jobs.janitor(h.Ctx, ttl, maxJobs)
	}()
}

// JobRoutes wires the job endpoints — list, get, cancel, the SSE event
// stream and the NDJSON results stream — each through wrap (nil:
// unwrapped) under its endpoint name. endStreamsOnClose ends both
// streams when Close cancels Ctx, for hosts whose Close leaves jobs
// unsettled.
func (h *Host) JobRoutes(wrap func(name string, hf http.HandlerFunc) http.HandlerFunc, endStreamsOnClose bool) {
	if wrap == nil {
		wrap = func(_ string, hf http.HandlerFunc) http.HandlerFunc { return hf }
	}
	var shutdown <-chan struct{}
	if endStreamsOnClose {
		shutdown = h.Ctx.Done()
	}
	h.Mux.HandleFunc("GET /v1/sweeps", wrap("sweep_list", h.jobs.ServeList))
	h.Mux.HandleFunc("GET /v1/sweeps/{id}", wrap("sweep_get", h.jobs.ServeGet))
	h.Mux.HandleFunc("DELETE /v1/sweeps/{id}", wrap("sweep_cancel", h.jobs.ServeCancel))
	h.Mux.HandleFunc("GET /v1/sweeps/{id}/events", wrap("sweep_events", func(w http.ResponseWriter, r *http.Request) {
		h.jobs.ServeEvents(w, r, h.writeTimeout, shutdown)
	}))
	h.Mux.HandleFunc("GET /v1/sweeps/{id}/results", wrap("sweep_results", func(w http.ResponseWriter, r *http.Request) {
		h.jobs.ServeResults(w, r, h.writeTimeout, shutdown)
	}))
}

// Handler returns the root handler behind the panic-recovery and
// access-logging layer.
func (h *Host) Handler() http.Handler {
	return AccessLog{Logger: h.logger, OnPanic: func() { h.Metrics.Add(h.prefix+"_panics_total", "", 1) }}.Wrap(h.Mux)
}

// Close rejects new jobs, cancels Ctx and waits for WG. The table closes
// first: Add is serialized against it, so no job launches past the
// drain.
func (h *Host) Close() {
	h.jobs.Close()
	h.stop()
	h.WG.Wait()
}

// JSONHandler is the shape of every JSON endpoint: it writes its own
// success response and returns a failure for the uniform error
// envelope. A nil return with nothing written answers nothing, which is
// how a handler drops a request whose caller went away.
type JSONHandler func(w http.ResponseWriter, r *http.Request) *RequestError

// ServeHTTP runs the handler and writes a returned error.
func (h JSONHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := h(w, r); err != nil {
		WriteError(w, err.Status, err.Code, "%s", err.Msg)
	}
}

// evalError maps the failure of an evaluation bound to the request
// context: an expired deadline answers 504, a departed caller gets
// nothing (nil), and every other error answers fallback.
func evalError(err error, what string, fallback *RequestError) *RequestError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return requestErrorf(http.StatusGatewayTimeout, CodeDeadlineExceeded, "%s exceeded the request deadline", what)
	case errors.Is(err, context.Canceled):
		return nil
	}
	return fallback
}
