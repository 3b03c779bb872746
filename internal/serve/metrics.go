package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dyncomp/internal/tdg"
)

// metrics is a minimal, dependency-free Prometheus-text-format
// collector: labelled monotonic counters plus a handful of gauges
// computed at scrape time (cache statistics, job states, uptime). It is
// deliberately not a full client library — the serving layer needs a
// dozen series, not a registry.
type metrics struct {
	mu       sync.Mutex
	counters map[string]map[string]int64 // metric name -> label set -> value
}

func newMetrics() *metrics {
	return &metrics{counters: map[string]map[string]int64{}}
}

// inc adds one to the counter identified by name and a rendered label
// set like `endpoint="run"` (empty for unlabelled counters).
func (m *metrics) inc(name, labels string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	series, ok := m.counters[name]
	if !ok {
		series = map[string]int64{}
		m.counters[name] = series
	}
	series[labels]++
}

// samples returns the series of one counter as sorted WriteMetric
// samples.
func (m *metrics) samples(name string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for labels, v := range m.counters[name] {
		out = append(out, Sample(labels, v))
	}
	sort.Strings(out)
	return out
}

// WriteMetric writes one metric family in the Prometheus text format:
// its HELP and TYPE lines, then one line per sample. A sample is what
// follows the family name on its line — " 3", `{worker="a"} 1`,
// `_bucket{le="0.1"} 7` — so plain, labelled and histogram families
// share the one writer.
func WriteMetric(w io.Writer, name, typ, help string, samples ...string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s\n", name, s)
	}
}

// Sample renders one WriteMetric sample from a label set (empty for
// none) and a value.
func Sample(labels string, v any) string {
	if labels == "" {
		return fmt.Sprintf(" %v", v)
	}
	return fmt.Sprintf("{%s} %v", labels, v)
}

// Metric names. Requests are counted per endpoint and status class;
// runs and jobs per engine / terminal state.
const (
	metricRequests   = "dyncomp_serve_requests_total"
	metricRuns       = "dyncomp_serve_runs_total"
	metricJobs       = "dyncomp_serve_jobs_total"
	metricChunks     = "dyncomp_serve_chunks_total"
	metricOptimize   = "dyncomp_serve_optimizations_total"
	metricRejections = "dyncomp_serve_rejections_total"
)

// predErrBuckets are the upper bounds of the prediction-error histogram
// (relative error; +Inf is implicit). The grid is log-spaced around the
// tolerances users actually request (0.1%–10%).
var predErrBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1}

// errHist is a minimal fixed-bucket Prometheus histogram for the
// per-point prediction errors of sampled sweeps.
type errHist struct {
	mu     sync.Mutex
	counts []int64 // per bucket; last is +Inf
	sum    float64
	n      int64
}

func (h *errHist) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]int64, len(predErrBuckets)+1)
	}
	i := 0
	for i < len(predErrBuckets) && v > predErrBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// samples renders the histogram's WriteMetric samples with cumulative
// bucket counts.
func (h *errHist) samples() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]int64, len(predErrBuckets)+1)
	}
	var out []string
	cum := int64(0)
	for i, ub := range predErrBuckets {
		cum += h.counts[i]
		out = append(out, fmt.Sprintf("_bucket{le=%q} %d", strconv.FormatFloat(ub, 'g', -1, 64), cum))
	}
	cum += h.counts[len(predErrBuckets)]
	return append(out,
		fmt.Sprintf("_bucket{le=\"+Inf\"} %d", cum),
		fmt.Sprintf("_sum %g", h.sum),
		fmt.Sprintf("_count %d", h.n))
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: the accumulated counters plus scrape-time gauges for the
// derivation cache, the job table and the process uptime.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name, help string, v any) { WriteMetric(w, name, "counter", help, Sample("", v)) }
	gauge := func(name, help string, v any) { WriteMetric(w, name, "gauge", help, Sample("", v)) }

	for _, c := range []struct{ name, help string }{
		{metricRequests, "HTTP requests served, by endpoint and status class."},
		{metricRuns, "Synchronous /v1/run evaluations, by engine."},
		{metricJobs, "Sweep jobs that reached a terminal state, by state."},
		{metricChunks, "Distributed sweep chunks evaluated for a coordinator, by engine."},
		{metricOptimize, "Design-space optimizations completed, by engine."},
		{metricRejections, "Requests rejected by admission control, by reason (unauthorized, quota_jobs, quota_points, overloaded)."},
	} {
		WriteMetric(w, c.name, "counter", c.help, s.metrics.samples(c.name)...)
	}
	gauge("dyncomp_serve_inflight_requests", "Work requests currently in flight (run/optimize/chunks/sweep submissions).", s.inflight.Load())
	counter("dyncomp_serve_jobs_evicted_total", "Settled jobs evicted by TTL or the max-jobs bound.", s.jobsEvicted.Load())
	counter("dyncomp_serve_panics_total", "Handler panics recovered into structured 500s.", s.panics.Load())
	counter("dyncomp_serve_chunk_points_total", "Grid points evaluated through the chunk endpoint.", s.chunkPoints.Load())

	hits, misses := s.cache.Stats()
	counter("dyncomp_serve_derive_cache_hits_total", "Derivation-cache requests served by rebinding.", hits)
	counter("dyncomp_serve_derive_cache_misses_total", "Derivations actually performed (including re-derivations of evicted shapes).", misses)
	counter("dyncomp_serve_derive_cache_evictions_total", "Templates evicted by the LRU entry bound.", s.cache.Evictions())
	gauge("dyncomp_serve_derive_cache_shapes", "Cached structural shapes.", s.cache.Shapes())
	gauge("dyncomp_serve_derive_cache_entry_limit", "Entry bound of the derivation cache (0: unbounded).", s.cache.Limit())
	var shapeHits []string
	for _, sh := range s.cache.Snapshot() {
		shapeHits = append(shapeHits, Sample(fmt.Sprintf("arch=%q,shape=%q", sh.Arch, sh.Digest), sh.Hits))
	}
	WriteMetric(w, "dyncomp_serve_derive_cache_shape_hits", "gauge", "Requests served per cached shape (occupancy snapshot).", shapeHits...)
	counter("dyncomp_serve_tdg_compiles_total", "Temporal-dependency-graph compilations performed process-wide; rebound shapes patch weight tables instead.", tdg.Compiles())

	batches := s.sweepBatches.Load()
	batchPoints := s.sweepBatchPoints.Load()
	batchLanes := s.sweepBatchLanes.Load()
	counter("dyncomp_serve_sweep_batches_total", "Batched lane evaluations dispatched by sweep jobs.", batches)
	counter("dyncomp_serve_sweep_batch_points_total", "Grid points evaluated through the batched path.", batchPoints)
	counter("dyncomp_serve_sweep_batch_lanes_total", "Lane capacity offered by those batches (batches x width).", batchLanes)
	occupancy := 0.0
	if batchLanes > 0 {
		occupancy = float64(batchPoints) / float64(batchLanes)
	}
	gauge("dyncomp_serve_sweep_batch_occupancy", "Mean lane utilization of batched sweep evaluations (points / capacity).", fmt.Sprintf("%.4f", occupancy))

	counter("dyncomp_serve_sweep_simulated_points_total", "Sampled-sweep grid points evaluated exactly.", s.sweepSimulated.Load())
	counter("dyncomp_serve_sweep_predicted_points_total", "Sampled-sweep grid points filled in by the surrogate model.", s.sweepPredicted.Load())
	WriteMetric(w, "dyncomp_serve_sweep_pred_error", "histogram", "Relative prediction error per predicted point (observed under sample_verify, declared bound otherwise).", s.predErrors.samples()...)

	queued, running := s.activeJobs()
	gauge("dyncomp_serve_jobs_queued", "Sweep jobs waiting for a worker.", queued)
	gauge("dyncomp_serve_jobs_running", "Sweep jobs currently executing.", running)
	gauge("dyncomp_serve_uptime_seconds", "Seconds since the server started.", fmt.Sprintf("%.3f", time.Since(s.started).Seconds()))
}

// statusRecorder captures the response status for the request-counting
// middleware while keeping http.ResponseController features (notably
// Flush, which the SSE endpoint needs) reachable through Unwrap.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Unwrap lets http.NewResponseController reach the underlying writer.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// countRequests wraps a handler with the per-endpoint request counter.
func (s *Server) countRequests(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		s.metrics.inc(metricRequests,
			fmt.Sprintf(`endpoint=%q,class=%q`, endpoint, fmt.Sprintf("%dxx", status/100)))
	}
}
