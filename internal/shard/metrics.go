package shard

// Coordinator observability: GET /metrics exposes the fabric's
// resilience counters in the Prometheus text format (through the
// serving layer's writer — stdlib only), and GET /readyz is the readiness
// probe load balancers and upstream breakers key on: a coordinator with
// no live worker accepts jobs it cannot dispatch, so it reports not
// ready.

import (
	"fmt"
	"net/http"

	"dyncomp/internal/serve"
)

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ws := c.ring.workers()
	alive := 0
	for _, m := range ws {
		if !m.Down {
			alive++
		}
	}

	gauge := func(name, help string, v any) { serve.WriteMetric(w, name, "gauge", help, serve.Sample("", v)) }
	counter := func(name, help string, v any) { serve.WriteMetric(w, name, "counter", help, serve.Sample("", v)) }

	gauge("dyncomp_coord_workers", "Registered fleet members.", len(ws))
	gauge("dyncomp_coord_workers_alive", "Fleet members with a closed breaker (in rotation).", alive)
	var breakers []string
	for _, m := range ws {
		v := 0
		switch m.Breaker {
		case breakerOpen.String():
			v = 1
		case breakerHalfOpen.String():
			v = 2
		}
		breakers = append(breakers, serve.Sample(fmt.Sprintf("worker=%q", m.URL), v))
	}
	serve.WriteMetric(w, "dyncomp_coord_breaker_state", "gauge", "Breaker state per worker (0 closed, 1 open, 2 half-open).", breakers...)
	counter("dyncomp_coord_breaker_opened_total", "Breakers opened (worker benched).", c.breakerOpened.Load())
	counter("dyncomp_coord_breaker_closed_total", "Breakers closed by a successful readiness probe.", c.breakerClosedN.Load())
	counter("dyncomp_coord_chunk_retries_total", "Chunk dispatch attempts past the first.", c.chunkRetries.Load())
	gauge("dyncomp_coord_jobs", "Jobs in the table.", c.jobs.Len())
	counter("dyncomp_coord_jobs_evicted_total", "Settled jobs evicted by TTL or the MaxJobs cap.", c.jobsEvicted.Load())
	counter("dyncomp_coord_store_compactions_total", "Store compactions past evicted jobs.", c.compactions.Load())
	counter("dyncomp_coord_panics_total", "Handler panics recovered by the middleware.", c.panics.Load())
}

// handleReadyz answers whether the coordinator can make progress:
// not shutting down and at least one worker in rotation. /healthz stays
// pure liveness.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.baseCtx.Err() != nil {
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
