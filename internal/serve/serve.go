// Package serve is the simulation-as-a-service layer: a long-lived HTTP
// JSON API multiplexing the whole engine × scenario matrix across
// concurrent callers. It is the first deployment target of this
// repository that is a process, not a command — the ROADMAP's
// production-scale direction made concrete.
//
// The service exposes four groups of endpoints:
//
//   - Synchronous evaluation: POST /v1/run runs one engine on one
//     model — a registered scenario by name, or an inline architecture
//     in the open JSON model format (internal/archjson) — and returns
//     the unified result. POST /v1/optimize runs the surrogate-driven
//     Pareto design-space optimizer (internal/optimize) over an inline
//     architecture's declared parameter space. Every run shares one
//     process-wide structure-keyed derivation cache (derive.Cache), so
//     structurally identical requests — the common case for a service
//     hammered with parameter variations of a few architectures —
//     rebind a cached temporal dependency graph instead of re-deriving
//     it, whether the model came from the registry or the wire.
//
//   - Asynchronous sweeps: POST /v1/sweeps queues a design-space sweep
//     job on a bounded job pool and returns a job id; GET
//     /v1/sweeps/{id} reports lifecycle and (when finished) the full
//     per-point results; GET /v1/sweeps/{id}/events streams point-level
//     progress as server-sent events; GET /v1/sweeps/{id}/results
//     streams the evaluated points as NDJSON as they land; DELETE
//     /v1/sweeps/{id} cancels through the same context plumbing the
//     sweep engine already honors. A job is the one SweepJob the shard
//     coordinator runs too — this server runs it as a fleet of one,
//     evaluating its chunks in process on the shared derivation cache.
//
//   - Distributed chunks: POST /v1/chunks evaluates one
//     coordinator-assigned set of grid indices synchronously — the
//     worker side of the internal/shard sweep fabric, evaluated by the
//     very function that runs this server's own job chunks, so a
//     sharded sweep stays bit-identical to a single-process one.
//
//   - Introspection: GET /v1/engines and /v1/scenarios enumerate the two
//     registries, /healthz reports liveness, /metrics exports request,
//     cache and job counters in the Prometheus text format.
//
// The package is deliberately free of dependencies beyond the standard
// library: routing uses net/http method patterns, metrics are rendered
// by hand, SSE is a Flush loop. See docs/SERVING.md for the full API
// reference and cmd/dyncomp-serve for the binary.
package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/zoo"

	// Register the built-in executors, the LTE case-study scenario and
	// the surrogate sweep-sampling driver, so the served registries and
	// sweep capabilities match the CLIs'.
	_ "dyncomp/internal/adaptive"
	_ "dyncomp/internal/baseline"
	_ "dyncomp/internal/core"
	_ "dyncomp/internal/hybrid"
	_ "dyncomp/internal/lte"
	_ "dyncomp/internal/surrogate"
)

// Config tunes the server. The zero value is usable: every field has a
// production-lean default applied by New.
type Config struct {
	// JobWorkers bounds how many sweep jobs execute concurrently
	// (default 2). Each job additionally evaluates up to SweepWorkers
	// chunks at a time.
	JobWorkers int
	// JobQueue bounds how many jobs may wait for a worker (default 64);
	// a full queue rejects POST /v1/sweeps with 429.
	JobQueue int
	// SweepWorkers is the per-job chunk concurrency applied when a
	// request does not set options.workers (default GOMAXPROCS).
	SweepWorkers int
	// SweepBatchWidth is the batched-evaluation lane width applied when
	// a request does not set options.batch_width (default 0: per-point
	// evaluation). Jobs on engines without the batch capability run per
	// point regardless.
	SweepBatchWidth int
	// MaxGridPoints rejects sweeps whose grid exceeds this many points
	// (default 100000) — a service must bound a single caller's blast
	// radius.
	MaxGridPoints int
	// CacheEntries bounds the process-wide derivation cache to this many
	// structural shapes, evicting least-recently-used templates beyond it
	// (default derive.DefaultEntries; negative disables eviction). The
	// bound protects long-lived servers against unbounded memory growth
	// from streams of structurally distinct models.
	CacheEntries int
	// AuthTokens maps bearer tokens to caller names. Empty disables
	// authentication: every caller passes, identified by remote IP.
	AuthTokens map[string]string
	// QuotaJobs bounds concurrently queued-or-running sweep jobs per
	// caller (0: unlimited); beyond it POST /v1/sweeps answers 429
	// quota_exceeded.
	QuotaJobs int
	// QuotaPoints bounds the grid points one caller may admit per
	// QuotaWindow across runs, sweeps, chunks and optimizations (0:
	// unlimited).
	QuotaPoints int
	// QuotaWindow is the fixed window QuotaPoints is accounted over
	// (default 1m).
	QuotaWindow time.Duration
	// MaxInFlight sheds work requests (run/optimize/chunks/sweep
	// submissions) beyond this many concurrently in flight with 429
	// overloaded + Retry-After (default 512; negative disables).
	MaxInFlight int
	// RequestTimeout bounds each work request end to end, honored down
	// through the engine run via its context (0: unbounded). Expired
	// requests answer 504 deadline_exceeded.
	RequestTimeout time.Duration
	// JobTTL evicts settled jobs this long after they finished (0: keep
	// forever).
	JobTTL time.Duration
	// MaxJobs bounds retained jobs, evicting the oldest settled ones
	// beyond it (0: unbounded). Queued and running jobs never count
	// against eviction.
	MaxJobs int
	// StreamWriteTimeout bounds every single write on the SSE and NDJSON
	// streams, so a stalled consumer cannot pin a stream goroutine
	// (default 30s; negative disables).
	StreamWriteTimeout time.Duration
	// Logger, when set, receives one structured access-log line per
	// request and one error line per recovered panic (see AccessLog).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueue <= 0 {
		c.JobQueue = 64
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxGridPoints <= 0 {
		c.MaxGridPoints = 100000
	}
	if c.SweepBatchWidth < 0 {
		c.SweepBatchWidth = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = derive.DefaultEntries
	} else if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded
	}
	if c.QuotaWindow <= 0 {
		c.QuotaWindow = time.Minute
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 512
	} else if c.MaxInFlight < 0 {
		c.MaxInFlight = 0 // shedding disabled
	}
	if c.StreamWriteTimeout == 0 {
		c.StreamWriteTimeout = 30 * time.Second
	} else if c.StreamWriteTimeout < 0 {
		c.StreamWriteTimeout = 0 // per-write deadline disabled
	}
	return c
}

// Server is the serving layer's state: the shared front end (job
// table, metrics registry, routes), the process-wide derivation cache
// and the job pool. Create it with New, expose Handler over an
// http.Server, and Close it on the way out (Close cancels running jobs
// and waits for the pool to drain).
type Server struct {
	*Host
	cfg     Config
	cache   *derive.Cache
	queue   chan *SweepJob // FIFO feeding the job worker pool
	started time.Time

	// predErrors is the histogram of per-point prediction errors of
	// sampled sweeps (observed under sample_verify, the declared bound
	// otherwise).
	predErrors *Histogram

	// Admission-control state: per-caller quotas and the in-flight work
	// gauge the shed middleware gates on.
	quotas   *quotas
	inflight atomic.Int64
}

// New creates a Server and starts its job worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		Host:    NewHost("dyncomp_serve", cfg.Logger, cfg.StreamWriteTimeout, nil),
		cfg:     cfg,
		cache:   derive.NewCacheLimit(cfg.CacheEntries),
		queue:   make(chan *SweepJob, cfg.JobQueue),
		quotas:  newQuotas(),
		started: time.Now(),
	}
	s.declareMetrics()
	s.routes()
	for i := 0; i < cfg.JobWorkers; i++ {
		s.WG.Add(1)
		go s.jobWorker()
	}
	s.StartJanitor(cfg.JobTTL, cfg.MaxJobs)
	return s
}

// Close shuts the job pool down: new job submissions are rejected,
// running jobs are cancelled (they settle as "cancelled" with their
// partial results) and jobs still queued are settled as "cancelled"
// too, so every SSE subscriber gets its terminal event instead of
// hanging into the HTTP drain timeout. Close blocks until every worker
// returned. Handlers may keep serving reads after Close.
func (s *Server) Close() {
	s.Host.Close()
	// No worker will ever pop these; settle them.
	for {
		select {
		case j := <-s.queue:
			j.Settle(JobCancelled, context.Canceled.Error(), time.Now())
		default:
			return
		}
	}
}

// routes wires every endpoint through its admission class (see
// admission.go): probes stay reachable without credentials, reads are
// authenticated, work endpoints additionally shed load and carry the
// request deadline, streams are bounded per write instead. Close
// settles every job, so the event streams need no shutdown signal.
func (s *Server) routes() {
	s.Mux.HandleFunc("GET /healthz", s.probe("healthz", s.handleHealthz))
	s.Mux.HandleFunc("GET /readyz", s.probe("readyz", s.handleReadyz))
	s.Mux.HandleFunc("GET /metrics", s.probe("metrics", s.Metrics.ServeHTTP))
	s.Mux.HandleFunc("GET /v1/engines", s.light("engines", s.handleEngines))
	s.Mux.HandleFunc("GET /v1/scenarios", s.light("scenarios", s.handleScenarios))
	s.Mux.HandleFunc("POST /v1/run", s.work("run", s.handleRun))
	s.Mux.HandleFunc("POST /v1/optimize", s.work("optimize", s.handleOptimize))
	s.Mux.HandleFunc("POST /v1/chunks", s.work("chunk_run", s.handleChunkRun))
	s.Mux.HandleFunc("POST /v1/sweeps", s.work("sweep_create", s.handleSweepCreate))
	s.JobRoutes(s.light, false)
}

// Health is the body of GET /healthz.
type Health struct {
	Status      string `json:"status"`
	UptimeNs    int64  `json:"uptime_ns"`
	JobsQueued  int    `json:"jobs_queued"`
	JobsRunning int    `json:"jobs_running"`
	CacheShapes int    `json:"cache_shapes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.activeJobs()
	WriteJSON(w, http.StatusOK, Health{
		Status:      "ok",
		UptimeNs:    time.Since(s.started).Nanoseconds(),
		JobsQueued:  queued,
		JobsRunning: running,
		CacheShapes: s.cache.Shapes(),
	})
}

// handleReadyz is the readiness probe: unlike /healthz (pure liveness)
// it answers 503 while the server drains and while the job queue is
// saturated, so load balancers and the shard coordinator's breaker
// probes steer work away before it would be rejected.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	queueLen, queueCap := len(s.queue), cap(s.queue)
	switch {
	case s.jobs.isClosed():
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, "draining")
	case queueCap > 0 && queueLen >= queueCap:
		WriteError(w, http.StatusServiceUnavailable, CodeOverloaded,
			"job queue saturated (%d/%d)", queueLen, queueCap)
	default:
		WriteJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ready"})
	}
}

// EngineInfo is one entry of GET /v1/engines.
type EngineInfo struct {
	Name string `json:"name"`
}

func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	names := engine.Names()
	out := struct {
		Engines []EngineInfo `json:"engines"`
	}{Engines: make([]EngineInfo, 0, len(names))}
	for _, n := range names {
		out.Engines = append(out.Engines, EngineInfo{Name: n})
	}
	WriteJSON(w, http.StatusOK, out)
}

// ScenarioInfo is one entry of GET /v1/scenarios.
type ScenarioInfo struct {
	Name        string   `json:"name"`
	Desc        string   `json:"desc"`
	Params      []string `json:"params"`
	HybridGroup bool     `json:"hybrid_group"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	scs := zoo.Scenarios()
	out := struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}{Scenarios: make([]ScenarioInfo, 0, len(scs))}
	for _, sc := range scs {
		out.Scenarios = append(out.Scenarios, ScenarioInfo{
			Name:        sc.Name,
			Desc:        sc.Desc,
			Params:      sc.ParamNames(),
			HybridGroup: sc.HybridGroup != nil,
		})
	}
	WriteJSON(w, http.StatusOK, out)
}
