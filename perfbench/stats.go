package main

import (
	"math"
	"regexp"
	"sort"
)

// endToEndUnits are the metrics of an untraced run, on every workload.
var endToEndUnits = map[string]string{
	"work_per_s":    "1/s",
	"op_ms_p50":     "ms",
	"op_ms_p90":     "ms",
	"cpu_ms_per_op": "ms",
	"peak_heap_mb":  "MB",
	"setup_s":       "s",
}

// layerUnits are the metrics of a traced run. Each belongs to the one
// workload named in NOTES.md, except trace.overhead_share, which is
// measured on the workload the run names.
var layerUnits = map[string]string{
	// engine_runs
	"sim.events_per_run":    "count",
	"sim.ns_per_event":      "ns",
	"derive.miss_ms":        "ms",
	"core.run_ms":           "ms",
	"tdg.step_ns":           "ns",
	"core.kernel_share":     "share",
	"adaptive.events_ratio": "ratio",
	"adaptive.time_ratio":   "ratio",
	"adaptive.switches":     "count",
	"hybrid.events_ratio":   "ratio",
	"hybrid.time_ratio":     "ratio",
	// sweep_grid
	"sweep.grid_us":              "us",
	"derive.hit_us":              "us",
	"derive.miss_us":             "us",
	"derive.hit_ratio":           "ratio",
	"derive.rebind_batch_us":     "us",
	"tdg.batch_step_ns_per_lane": "ns",
	"core.batch_ms":              "ms",
	"sweep.batch_occupancy":      "share",
	"sweep.pool_busy_share":      "share",
	"surrogate.simulated_frac":   "share",
	// http_mixed
	"serve.handler_ms.run":          "ms",
	"serve.handler_ms.run_inline":   "ms",
	"serve.handler_ms.sweep_create": "ms",
	"serve.handler_ms.sweep_events": "ms",
	"serve.transport_ms":            "ms",
	"serve.engine_share":            "share",
	"archjson.decode_us":            "us",
	"serve.cache_hit_ratio":         "ratio",
	"serve.job_queue_ms":            "ms",
	// fleet_sweep
	"shard.submit_ms":          "ms",
	"shard.chunk_rtt_ms":       "ms",
	"shard.worker_chunk_ms":    "ms",
	"shard.chunk_engine_share": "share",
	"shard.retries":            "count",
	"shard.chunks_per_job":     "count",
	// every workload
	"trace.overhead_share": "share",
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validName reports whether name is a legal metric name: it starts with
// a letter or digit and is at most 64 letters, digits, '_', '.' and '-'.
func validName(name string) bool {
	return len(name) <= 64 && metricName.MatchString(name) && name[0] != '_' && name[0] != '.' && name[0] != '-'
}

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks; NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
