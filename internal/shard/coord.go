// Package shard is the distributed sweep fabric: a coordinator that
// accepts the serving layer's sweep job API and runs each job — the
// serving layer's serve.SweepJob, which plans the chunks and merges the
// results back into grid order — across a fleet of dyncomp-serve
// workers, bit-identical to a single-process sweep.Run of the same
// request. This package holds only the fleet: the consistent-hash ring,
// circuit breakers and their probes, retry backoff, the Transport to a
// worker's POST /v1/chunks, the job store and recovery, and
// /v1/workers.
//
// The design follows three rules:
//
//   - Shape affinity. Chunks are routed on a consistent-hash ring keyed
//     by derive.ShapeKey, so every chunk of a shape cohort lands on the
//     same worker: its structure-keyed derivation cache derives once and
//     rebinds for the rest, and its batched lanes fill exactly as a
//     single-process sweep's would (chunks are cut by sweep.Plan, the
//     batched sweep's own planner).
//
//   - Deterministic planning. The plan — grid expansion, cohort
//     grouping, chunk cuts — is a pure function of the persisted sweep
//     spec and the chunk-size target, so a restarted coordinator replans
//     the identical chunk list and identifies recovered results by
//     nothing more than their chunk position.
//
//   - Narrow durability. The append-only store remembers only what
//     cannot be recomputed: submitted specs, completed chunk results and
//     terminal states. Everything else is replay.
//
// Worker failure triggers bounded retry with re-hash to surviving
// workers; a degraded single-worker fleet still completes every job. A
// chunk no worker can evaluate settles its points with the fabric error
// — done still reaches total, mirroring the sweep engine's per-point
// failure semantics.
package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"dyncomp/internal/serve"
)

// Config tunes the coordinator. The zero value is usable given at least
// one worker (registered up front in Workers or later via POST
// /v1/workers).
type Config struct {
	// Workers are the initial fleet members' base URLs.
	Workers []string
	// StorePath is the append-only job store file; empty runs the
	// coordinator memory-only (jobs do not survive a restart).
	StorePath string
	// ChunkPoints is the target grid points per dispatched chunk
	// (default 16). Larger chunks amortize HTTP overhead; smaller ones
	// spread a cohort wider and shrink the retry unit.
	ChunkPoints int
	// Retries bounds how many workers one chunk is attempted on before
	// its points fail with the fabric error (default 3).
	Retries int
	// ChunkTimeout bounds one dispatch attempt (0: no per-attempt
	// timeout; the job context still applies).
	ChunkTimeout time.Duration
	// Dispatch bounds the in-flight chunks per job (default 4).
	Dispatch int
	// Transport carries chunks to workers; nil selects the real HTTP
	// transport over Client. Tests inject faults here.
	Transport Transport
	// Client is the HTTP client of the default transport (nil:
	// http.DefaultClient semantics with no overall timeout).
	Client *http.Client
	// Defaults are the sweep-compilation defaults applied to request
	// fields left at zero, exactly as a worker's serve.Config would.
	Defaults serve.SweepDefaults
	// BreakerThreshold is the consecutive transport-failure count that
	// opens a worker's circuit breaker (default 1: the first failure
	// benches the worker, as before the breaker existed).
	BreakerThreshold int
	// ProbeBase / ProbeMax bound the jittered exponential backoff
	// between recovery probes of an open breaker (defaults 500ms / 30s).
	ProbeBase time.Duration
	ProbeMax  time.Duration
	// ProbeTimeout bounds one probe attempt (default 2s).
	ProbeTimeout time.Duration
	// Prober checks readiness of a benched worker; nil selects
	// GET /readyz over Client. Tests inject outcomes here.
	Prober Prober
	// RetryBase / RetryMax bound the decorrelated-jitter backoff between
	// dispatch attempts of one chunk (defaults 10ms / 1s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// JobTTL evicts settled jobs this long after they finish (0: keep
	// forever); MaxJobs additionally evicts the oldest settled jobs
	// beyond the count (0: unbounded). Eviction compacts the store past
	// the dropped jobs.
	JobTTL  time.Duration
	MaxJobs int
	// StreamWriteTimeout bounds each write on the SSE and NDJSON streams
	// so one stalled consumer cannot pin a handler goroutine forever
	// (default 30s; negative disables).
	StreamWriteTimeout time.Duration
	// Logger receives structured access logs (nil: no request logging;
	// panic recovery stays active).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ChunkPoints <= 0 {
		c.ChunkPoints = 16
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.Dispatch <= 0 {
		c.Dispatch = 4
	}
	client := c.Client
	if client == nil {
		client = &http.Client{}
	}
	if c.Transport == nil {
		c.Transport = &httpTransport{client: client}
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 1
	}
	if c.ProbeBase <= 0 {
		c.ProbeBase = 500 * time.Millisecond
	}
	if c.ProbeMax <= 0 {
		c.ProbeMax = 30 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Prober == nil {
		c.Prober = &httpProber{client: client}
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	switch {
	case c.StreamWriteTimeout == 0:
		c.StreamWriteTimeout = 30 * time.Second
	case c.StreamWriteTimeout < 0:
		c.StreamWriteTimeout = 0
	}
	return c
}

// Coordinator is the fabric's control plane: the worker ring, the job
// table and the durability store, exposed over the same /v1/sweeps API
// vocabulary as a single dyncomp-serve process — plus the fleet
// endpoints (/v1/workers) and an NDJSON result stream. It embeds the
// serving layer's front end, so its job routes, metrics registry,
// access log and shutdown order are the single server's.
type Coordinator struct {
	*serve.Host
	cfg   Config
	ring  *ring
	store *Store
	jobs  *serve.JobTable
}

// ResultLine is one line of the GET /v1/sweeps/{id}/results NDJSON
// stream, which the coordinator serves through the serving layer's job
// routes.
type ResultLine = serve.ResultLine

// New creates a Coordinator: opens the store (when configured), replays
// it — finished jobs become readable again, in-flight ones resume
// dispatching — and wires the HTTP handlers.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg, ring: newRing(cfg.Workers)}
	c.Host = serve.NewHost("dyncomp_coord", cfg.Logger, cfg.StreamWriteTimeout, c.compact)
	c.jobs = c.Jobs()
	c.declareMetrics()
	if cfg.StorePath != "" {
		store, recovered, err := OpenStore(cfg.StorePath)
		if err != nil {
			c.Host.Close()
			return nil, fmt.Errorf("shard: opening store: %w", err)
		}
		c.store = store
		for _, jr := range recovered {
			c.recoverJob(jr)
		}
	}
	c.routes()
	c.StartJanitor(cfg.JobTTL, cfg.MaxJobs)
	return c, nil
}

// compact is the job table's eviction hook: compact the store down to
// the surviving jobs, so neither the table nor the on-disk log grows
// without bound under sustained traffic.
func (c *Coordinator) compact() {
	if c.store == nil {
		return
	}
	live := map[string]bool{}
	for _, j := range c.jobs.List() {
		live[j.ID] = true
	}
	if _, _, err := c.store.Compact(live); err == nil {
		c.Metrics.Add(metricCompactions, "", 1)
	}
}

// recoverJob rebuilds one persisted job: replan deterministically from
// the pinned spec, replay the recorded chunk results in chunk order (so
// the NDJSON arrival stream of a resumed job is deterministic), then
// either settle the recorded terminal state or resume dispatching the
// chunks that never came back.
func (c *Coordinator) recoverJob(jr JobRecord) {
	// Replan under neutral defaults: the spec's pinned batch width and
	// the recorded chunk size carry the plan-relevant knobs, so a
	// restart with different flags still cuts identical chunks. The job
	// was admitted when it was submitted; recovery never re-admits it,
	// so no grid-size bound applies.
	j, rerr := serve.NewSweepJob(jr.Spec, serve.SweepDefaults{Workers: c.cfg.Defaults.Workers, MaxGridPoints: math.MaxInt}, jr.ChunkPoints, jr.Created)
	if rerr != nil {
		// The spec no longer compiles (e.g. a scenario was removed).
		// Surface the job as failed instead of silently dropping it; it
		// fails now, so its TTL runs from now.
		j = &serve.SweepJob{Lifecycle: serve.Lifecycle{ID: jr.ID, Created: jr.Created}, Spec: jr.Spec}
		j.Settle(serve.JobFailed, rerr.Msg, time.Now())
		c.jobs.Restore(j)
		return
	}
	j.ID = jr.ID
	for _, ci := range slices.Sorted(maps.Keys(jr.Chunks)) {
		cr := jr.Chunks[ci]
		j.ApplyChunk(ci, serve.ChunkResponse{Points: cr.Points, Batches: cr.Batches, BatchedPoints: cr.BatchedPoints})
	}
	if jr.State != "" {
		st := stateFromWire(jr.State)
		if st == serve.JobDone {
			// done promises done == total; a chunk whose record was
			// torn off the tail settles with an explicit error.
			for _, ci := range j.Pending() {
				j.FailChunk(ci, errors.New("shard: chunk result lost before coordinator shutdown"))
			}
		}
		finished := jr.Finished
		if finished.IsZero() {
			finished = jr.Created // a record from before finish times were kept
		}
		j.Settle(st, jr.Error, finished) // already persisted: no hook yet
		c.jobs.Restore(j)
		return
	}
	j.OnSettle = c.persistState(j)
	c.jobs.Restore(j)
	c.launch(j)
}

// stateFromWire maps a persisted terminal state back onto the
// lifecycle. Unknown strings — a corrupted but parseable record —
// settle as failed rather than resurrecting the job.
func stateFromWire(s string) serve.JobState {
	switch s {
	case "done":
		return serve.JobDone
	case "cancelled":
		return serve.JobCancelled
	}
	return serve.JobFailed
}

// persistState is the settle hook of every job this process runs: the
// terminal state reaches the store before the lock that publishes it is
// released, so a restart never resurrects a settled job.
func (c *Coordinator) persistState(j *serve.SweepJob) func(serve.JobState, string, time.Time) {
	return func(st serve.JobState, errMsg string, finished time.Time) {
		_ = c.store.AppendState(j.ID, st.String(), errMsg, finished)
	}
}

// Close stops the coordinator. With a store, running jobs are
// interrupted mid-dispatch WITHOUT settling a terminal state — their
// store records end at the last completed chunk, which is exactly where
// a restarted coordinator resumes them; without one they settle
// cancelled. Close blocks until every dispatcher returned, then closes
// the store.
func (c *Coordinator) Close() {
	c.Host.Close()
	_ = c.store.Close()
}

// routes wires the fleet endpoints and sweep submission beside the
// shared job routes. Unsettled jobs never change again once the
// coordinator shuts down, so their event and result streams end on
// Close and the HTTP drain does not wait.
func (c *Coordinator) routes() {
	c.Mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.Mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.Mux.Handle("GET /metrics", c.Metrics)
	c.Mux.HandleFunc("GET /v1/workers", c.handleWorkersList)
	c.Mux.Handle("POST /v1/workers", serve.JSONHandler(c.handleWorkersAdd))
	c.Mux.Handle("POST /v1/sweeps", serve.JSONHandler(c.handleSweepCreate))
	c.JobRoutes(nil, true)
}

// errShutdown answers submissions to a coordinator that is closing.
var errShutdown = &serve.RequestError{Status: http.StatusServiceUnavailable,
	Code: serve.CodeUnavailable, Msg: "coordinator shutting down"}

// handleSweepCreate serves POST /v1/sweeps: validate, persist and
// launch one job, and answer 202 with its lifecycle snapshot.
func (c *Coordinator) handleSweepCreate(w http.ResponseWriter, r *http.Request) *serve.RequestError {
	var req serve.SweepRequest
	if rerr := serve.DecodeJSON(w, r, &req); rerr != nil {
		return rerr
	}
	if c.Ctx.Err() != nil {
		return errShutdown
	}
	j, rerr := serve.NewSweepJob(req, c.cfg.Defaults, c.cfg.ChunkPoints, time.Now())
	if rerr != nil {
		return rerr
	}
	j.OnSettle = c.persistState(j)
	if err := c.jobs.Add(j, nil); err != nil {
		return errShutdown
	}
	// The persisted spec pins the effective batch width: workers must
	// not substitute their own default, and a restarted coordinator
	// must replan the same cuts.
	if err := c.store.AppendJob(j.ID, j.Created, j.Spec, c.cfg.ChunkPoints); err != nil {
		// Replay ignores a state record whose job record is missing.
		j.Settle(serve.JobFailed, fmt.Sprintf("persisting job: %v", err), time.Now())
	} else {
		c.launch(j)
	}
	serve.WriteJSON(w, http.StatusAccepted, j.Snapshot())
	return nil
}

// launch runs a job across the fleet, Config.Dispatch chunks in flight,
// each delivered by dispatchChunk; the settle hook persists the
// terminal state. With a store, a job interrupted by Close stays
// unsettled for a restart to resume.
func (c *Coordinator) launch(j *serve.SweepJob) {
	c.WG.Add(1)
	go func() {
		defer c.WG.Done()
		j.Run(c.Ctx, c.cfg.Dispatch, c.dispatchChunk, c.store != nil)
	}()
}

// dispatchChunk is the coordinator's chunk runner: look the owning
// worker up on the ring, post the chunk, and on failure re-hash to the
// next surviving worker under a decorrelated-jitter backoff —
// transport-level failures additionally count against the worker's
// circuit breaker, benching it fleet-wide once the threshold trips. A
// permanent 4xx answer settles the chunk (every worker validates
// identically); retries are bounded by Config.Retries and by fleet
// exhaustion, after which the chunk's points settle with the fabric
// error.
func (c *Coordinator) dispatchChunk(ctx context.Context, j *serve.SweepJob, ci int) {
	cp := j.Chunk(ci)
	req := serve.ChunkRequest{SweepRequest: j.Spec, Indices: cp.Indices}
	exclude := map[string]bool{}
	var lastErr error
	var backoff time.Duration
	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		if ctx.Err() != nil {
			return
		}
		if attempt > 0 {
			// Decorrelated-jitter pause before re-dispatching: a fleet-wide
			// hiccup (worker restart, network blip) clears instead of being
			// hammered through the retry budget in microseconds.
			backoff = nextBackoff(backoff, c.cfg.RetryBase, c.cfg.RetryMax)
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			c.Metrics.Add(metricChunkRetries, "", 1)
		}
		worker, ok := c.ring.lookup(cp.Shape, exclude)
		if !ok {
			if lastErr == nil {
				lastErr = errors.New("no live worker")
			}
			break
		}
		resp, err := c.attempt(ctx, worker, req)
		if err == nil {
			c.ring.recordSuccess(worker)
			if j.ApplyChunk(ci, *resp) {
				_ = c.store.AppendChunk(j.ID, ci, worker, resp)
			}
			return
		}
		if ctx.Err() != nil {
			return // job cancelled or coordinator shutting down
		}
		var we *WorkerError
		switch {
		case errors.As(err, &we) && we.Permanent():
			j.FailChunk(ci, err)
			return
		case errors.As(err, &we):
			// The worker answered (5xx, or a per-worker 429/408), so it is
			// alive but unhealthy or shedding — steer this chunk elsewhere
			// without benching the worker.
			exclude[worker] = true
		default:
			// Transport-level: connection refused, torn response,
			// per-attempt timeout. Count it against the worker's breaker;
			// past the threshold the breaker opens and a probe loop owns
			// bringing the worker back.
			c.benchWorker(worker)
			exclude[worker] = true
		}
		lastErr = err
	}
	j.FailChunk(ci, fmt.Errorf("shard: chunk undeliverable: %w", lastErr))
}

// attempt posts one chunk to one worker under Config.ChunkTimeout. The
// attempt's context ends when the attempt does, so a failed attempt
// holds no timer while the chunk retries elsewhere.
func (c *Coordinator) attempt(ctx context.Context, worker string, req serve.ChunkRequest) (*serve.ChunkResponse, error) {
	if c.cfg.ChunkTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.ChunkTimeout)
		defer cancel()
	}
	return c.cfg.Transport.RunChunk(ctx, worker, req)
}

// benchWorker records one transport-level dispatch failure against a
// worker's breaker; on the closed→open transition it starts the
// recovery probe loop (exactly one per open breaker).
func (c *Coordinator) benchWorker(url string) {
	if !c.ring.recordFailure(url, c.cfg.BreakerThreshold) {
		return
	}
	c.Metrics.Add(metricBreakerOpened, "", 1)
	c.WG.Add(1)
	go c.probeWorker(url)
}

// probeWorker drives one open breaker back to closed: wait out a
// jittered exponential backoff, half-open the breaker, probe the
// worker's readiness, and either close the breaker (success) or re-open
// it and back off further. The loop also exits when the worker closes
// by other means (re-registration) or the coordinator shuts down.
func (c *Coordinator) probeWorker(url string) {
	defer c.WG.Done()
	defer c.ring.probeDone(url)
	backoff := c.cfg.ProbeBase
	for {
		t := time.NewTimer(jitter(backoff))
		select {
		case <-c.Ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		if !c.ring.beginProbe(url) {
			return
		}
		pctx, cancel := context.WithTimeout(c.Ctx, c.cfg.ProbeTimeout)
		err := c.cfg.Prober.Probe(pctx, url)
		cancel()
		if err == nil {
			c.ring.probeSucceeded(url)
			c.Metrics.Add(metricBreakerClosed, "", 1)
			return
		}
		c.ring.probeFailed(url)
		backoff *= 2
		if backoff > c.cfg.ProbeMax {
			backoff = c.cfg.ProbeMax
		}
	}
}

// Health is the body of GET /healthz.
type Health struct {
	Status       string `json:"status"`
	Workers      int    `json:"workers"`
	WorkersAlive int    `json:"workers_alive"`
	Jobs         int    `json:"jobs"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, Health{
		Status:       "ok",
		Workers:      len(c.ring.workers()),
		WorkersAlive: c.ring.alive(),
		Jobs:         c.jobs.Len(),
	})
}

func (c *Coordinator) handleWorkersList(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, struct {
		Workers []WorkerStatus `json:"workers"`
	}{Workers: c.ring.workers()})
}

// workerAddRequest is the body of POST /v1/workers: a dyncomp-serve
// process announcing itself (see the -register flag). Re-registering a
// benched worker puts it back in rotation under its original ring
// positions.
type workerAddRequest struct {
	URL string `json:"url"`
}

func (c *Coordinator) handleWorkersAdd(w http.ResponseWriter, r *http.Request) *serve.RequestError {
	var req workerAddRequest
	if rerr := serve.DecodeJSON(w, r, &req); rerr != nil {
		return rerr
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return &serve.RequestError{Status: http.StatusBadRequest, Code: serve.CodeBadJSON,
			Msg: fmt.Sprintf("url %q is not an absolute http(s) URL", req.URL)}
	}
	c.ring.add(strings.TrimRight(req.URL, "/"))
	serve.WriteJSON(w, http.StatusOK, struct {
		Workers []WorkerStatus `json:"workers"`
	}{Workers: c.ring.workers()})
	return nil
}
