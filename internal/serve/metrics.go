package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dyncomp/internal/tdg"
)

// Registry is the one metrics registry of the serving fabric: a
// minimal, dependency-free Prometheus-text-format collector. A front end
// declares its families on it once, in exposition order; counters and
// histograms live in the registry, every other family is computed at
// scrape time by the function it was declared with. ServeHTTP renders
// GET /metrics.
type Registry struct {
	mu       sync.Mutex
	families []family
	counters map[string]map[string]int64 // counter name -> label set -> value
}

type family struct {
	name, typ, help string
	samples         func() []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]map[string]int64{}}
}

// Func declares a family whose samples are computed at scrape time. A
// sample is what follows the family name on its line — " 3",
// `{worker="a"} 1`, `_bucket{le="0.1"} 7`.
func (m *Registry) Func(name, typ, help string, samples func() []string) {
	m.families = append(m.families, family{name, typ, help, samples})
}

// Value declares a family of one unlabelled sample computed at scrape
// time.
func (m *Registry) Value(name, typ, help string, v func() any) {
	m.Func(name, typ, help, func() []string { return []string{sample("", v())} })
}

// Counter declares an unlabelled counter held by the registry; it reads
// 0 until the first Add.
func (m *Registry) Counter(name, help string) {
	m.counter(name, help, map[string]int64{"": 0})
}

// CounterVec declares a counter held by the registry per label set; it
// has no sample until a label set is first counted.
func (m *Registry) CounterVec(name, help string) {
	m.counter(name, help, map[string]int64{})
}

func (m *Registry) counter(name, help string, series map[string]int64) {
	m.counters[name] = series
	m.Func(name, "counter", help, func() []string {
		m.mu.Lock()
		defer m.mu.Unlock()
		out := make([]string, 0, len(series))
		for labels, v := range series {
			out = append(out, sample(labels, v))
		}
		sort.Strings(out)
		return out
	})
}

// Add adds n to the counter series name{labels} (labels like
// `endpoint="run"`, empty for an unlabelled counter). The counter must
// have been declared.
func (m *Registry) Add(name, labels string, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	series, ok := m.counters[name]
	if !ok {
		panic("serve: undeclared counter " + name)
	}
	series[labels] += n
}

// Count returns the value of the counter series name{labels}.
func (m *Registry) Count(name, labels string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name][labels]
}

// ServeHTTP serves GET /metrics: every family in declaration order, its
// HELP and TYPE lines, then its samples.
func (m *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, f := range m.families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples() {
			fmt.Fprintf(w, "%s%s\n", f.name, s)
		}
	}
}

// sample renders one sample from a label set (empty for none) and a
// value.
func sample(labels string, v any) string {
	if labels == "" {
		return fmt.Sprintf(" %v", v)
	}
	return fmt.Sprintf("{%s} %v", labels, v)
}

// Histogram is a fixed-bucket histogram held by the registry.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds; +Inf is implicit
	counts  []int64   // per bucket; last is +Inf
	sum     float64
	n       int64
}

// Histogram declares a histogram family over the given bucket upper
// bounds.
func (m *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := &Histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
	m.Func(name, "histogram", help, h.samples)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// samples renders cumulative bucket counts, the sum and the count.
func (h *Histogram) samples() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	cum := int64(0)
	for i, ub := range h.buckets {
		cum += h.counts[i]
		out = append(out, fmt.Sprintf("_bucket{le=%q} %d", strconv.FormatFloat(ub, 'g', -1, 64), cum))
	}
	cum += h.counts[len(h.buckets)]
	return append(out,
		fmt.Sprintf("_bucket{le=\"+Inf\"} %d", cum),
		fmt.Sprintf("_sum %g", h.sum),
		fmt.Sprintf("_count %d", h.n))
}

// The server's counter names. Requests are counted per endpoint and
// status class; runs and jobs per engine / terminal state.
const (
	metricRequests    = "dyncomp_serve_requests_total"
	metricRuns        = "dyncomp_serve_runs_total"
	metricJobs        = "dyncomp_serve_jobs_total"
	metricChunks      = "dyncomp_serve_chunks_total"
	metricOptimize    = "dyncomp_serve_optimizations_total"
	metricRejections  = "dyncomp_serve_rejections_total"
	metricChunkPoints = "dyncomp_serve_chunk_points_total"
	metricBatches     = "dyncomp_serve_sweep_batches_total"
	metricBatchPoints = "dyncomp_serve_sweep_batch_points_total"
	metricBatchLanes  = "dyncomp_serve_sweep_batch_lanes_total"
	metricSimulated   = "dyncomp_serve_sweep_simulated_points_total"
	metricPredicted   = "dyncomp_serve_sweep_predicted_points_total"
)

// predErrBuckets are the upper bounds of the prediction-error histogram
// (relative error; +Inf is implicit). The grid is log-spaced around the
// tolerances users actually request (0.1%–10%).
var predErrBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1}

// declareMetrics declares the server's families in exposition order:
// the counters plus scrape-time gauges for the derivation cache, the job
// table and the process uptime.
func (s *Server) declareMetrics() {
	m := s.Metrics
	m.CounterVec(metricRequests, "HTTP requests served, by endpoint and status class.")
	m.CounterVec(metricRuns, "Synchronous /v1/run evaluations, by engine.")
	m.CounterVec(metricJobs, "Sweep jobs that reached a terminal state, by state.")
	m.CounterVec(metricChunks, "Distributed sweep chunks evaluated for a coordinator, by engine.")
	m.CounterVec(metricOptimize, "Design-space optimizations completed, by engine.")
	m.CounterVec(metricRejections, "Requests rejected by admission control, by reason (unauthorized, quota_jobs, quota_points, overloaded).")
	m.Value("dyncomp_serve_inflight_requests", "gauge", "Work requests currently in flight (run/optimize/chunks/sweep submissions).", func() any { return s.inflight.Load() })
	m.Counter("dyncomp_serve_jobs_evicted_total", "Settled jobs evicted by TTL or the max-jobs bound.")
	m.Counter("dyncomp_serve_panics_total", "Handler panics recovered into structured 500s.")
	m.Counter(metricChunkPoints, "Grid points evaluated through the chunk endpoint.")

	m.Value("dyncomp_serve_derive_cache_hits_total", "counter", "Derivation-cache requests served by rebinding.", func() any { hits, _ := s.cache.Stats(); return hits })
	m.Value("dyncomp_serve_derive_cache_misses_total", "counter", "Derivations actually performed (including re-derivations of evicted shapes).", func() any { _, misses := s.cache.Stats(); return misses })
	m.Value("dyncomp_serve_derive_cache_evictions_total", "counter", "Templates evicted by the LRU entry bound.", func() any { return s.cache.Evictions() })
	m.Value("dyncomp_serve_derive_cache_shapes", "gauge", "Cached structural shapes.", func() any { return s.cache.Shapes() })
	m.Value("dyncomp_serve_derive_cache_entry_limit", "gauge", "Entry bound of the derivation cache (0: unbounded).", func() any { return s.cache.Limit() })
	m.Func("dyncomp_serve_derive_cache_shape_hits", "gauge", "Requests served per cached shape (occupancy snapshot).", func() []string {
		var out []string
		for _, sh := range s.cache.Snapshot() {
			out = append(out, sample(fmt.Sprintf("arch=%q,shape=%q", sh.Arch, sh.Digest), sh.Hits))
		}
		return out
	})
	m.Value("dyncomp_serve_tdg_compiles_total", "counter", "Temporal-dependency-graph compilations performed process-wide; rebound shapes patch weight tables instead.", func() any { return tdg.Compiles() })

	m.Counter(metricBatches, "Batched lane evaluations dispatched by sweep jobs.")
	m.Counter(metricBatchPoints, "Grid points evaluated through the batched path.")
	m.Counter(metricBatchLanes, "Lane capacity offered by those batches (batches x width).")
	m.Value("dyncomp_serve_sweep_batch_occupancy", "gauge", "Mean lane utilization of batched sweep evaluations (points / capacity).", func() any {
		occupancy := 0.0
		if lanes := m.Count(metricBatchLanes, ""); lanes > 0 {
			occupancy = float64(m.Count(metricBatchPoints, "")) / float64(lanes)
		}
		return fmt.Sprintf("%.4f", occupancy)
	})

	m.Counter(metricSimulated, "Sampled-sweep grid points evaluated exactly.")
	m.Counter(metricPredicted, "Sampled-sweep grid points filled in by the surrogate model.")
	s.predErrors = m.Histogram("dyncomp_serve_sweep_pred_error", "Relative prediction error per predicted point (observed under sample_verify, declared bound otherwise).", predErrBuckets)

	m.Value("dyncomp_serve_jobs_queued", "gauge", "Sweep jobs waiting for a worker.", func() any { queued, _ := s.activeJobs(); return queued })
	m.Value("dyncomp_serve_jobs_running", "gauge", "Sweep jobs currently executing.", func() any { _, running := s.activeJobs(); return running })
	m.Value("dyncomp_serve_uptime_seconds", "gauge", "Seconds since the server started.", func() any { return fmt.Sprintf("%.3f", time.Since(s.started).Seconds()) })
}

// countRequests wraps a handler with the per-endpoint request counter,
// reading the status off the access log's recorder.
func (s *Server) countRequests(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(w, r)
		status := http.StatusOK
		if ar := recorderOf(w); ar != nil && ar.status != 0 {
			status = ar.status
		}
		s.Metrics.Add(metricRequests, fmt.Sprintf(`endpoint=%q,class="%dxx"`, endpoint, status/100), 1)
	}
}
