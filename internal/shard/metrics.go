package shard

// Coordinator observability: GET /metrics exposes the fabric's
// resilience counters in the Prometheus text format (declared on the
// serving layer's registry — stdlib only), and GET /readyz is the readiness
// probe load balancers and upstream breakers key on: a coordinator with
// no live worker accepts jobs it cannot dispatch, so it reports not
// ready.

import (
	"fmt"
	"net/http"

	"dyncomp/internal/serve"
)

// The coordinator's counter names.
const (
	metricBreakerOpened = "dyncomp_coord_breaker_opened_total"
	metricBreakerClosed = "dyncomp_coord_breaker_closed_total"
	metricChunkRetries  = "dyncomp_coord_chunk_retries_total"
	metricCompactions   = "dyncomp_coord_store_compactions_total"
)

// declareMetrics declares the coordinator's families in exposition
// order.
func (c *Coordinator) declareMetrics() {
	m := c.Metrics
	m.Value("dyncomp_coord_workers", "gauge", "Registered fleet members.", func() any { return len(c.ring.workers()) })
	m.Value("dyncomp_coord_workers_alive", "gauge", "Fleet members with a closed breaker (in rotation).", func() any { return c.ring.alive() })
	m.Func("dyncomp_coord_breaker_state", "gauge", "Breaker state per worker (0 closed, 1 open, 2 half-open).", func() []string {
		var out []string
		for _, ws := range c.ring.workers() {
			v := 0
			switch ws.Breaker {
			case breakerOpen.String():
				v = 1
			case breakerHalfOpen.String():
				v = 2
			}
			out = append(out, fmt.Sprintf("{worker=%q} %d", ws.URL, v))
		}
		return out
	})
	m.Counter(metricBreakerOpened, "Breakers opened (worker benched).")
	m.Counter(metricBreakerClosed, "Breakers closed by a successful readiness probe.")
	m.Counter(metricChunkRetries, "Chunk dispatch attempts past the first.")
	m.Value("dyncomp_coord_jobs", "gauge", "Jobs in the table.", func() any { return c.jobs.Len() })
	m.Counter("dyncomp_coord_jobs_evicted_total", "Settled jobs evicted by TTL or the MaxJobs cap.")
	m.Counter(metricCompactions, "Store compactions past evicted jobs.")
	m.Counter("dyncomp_coord_panics_total", "Handler panics recovered by the middleware.")
}

// handleReadyz answers whether the coordinator can make progress:
// not shutting down and at least one worker in rotation. /healthz stays
// pure liveness.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.Ctx.Err() != nil {
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeUnavailable, "coordinator shutting down")
		return
	}
	if c.ring.alive() == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeUnavailable, "no worker in rotation")
		return
	}
	serve.WriteJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}
