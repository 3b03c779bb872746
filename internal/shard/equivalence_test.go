package shard

import (
	"testing"

	"dyncomp/internal/serve"
	"dyncomp/internal/zoo"
)

// scenarioSweeps spans a small structurally diverse grid per registered
// scenario: at least one structure-changing axis (several shape
// cohorts, so the consistent-hash ring actually shards) and one
// dynamics axis (so cohorts are wider than one point and the batched
// lanes fill).
var scenarioSweeps = map[string]serve.SweepRequest{
	"didactic": {
		Scenario: "didactic",
		Axes: []serve.Axis{
			{Name: "stages", Values: []int64{1, 2}},
			{Name: "seed", Values: []int64{3, 5, 7}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"chain": {
		Scenario: "chain",
		Axes: []serve.Axis{
			{Name: "stages", Values: []int64{2, 3}},
			{Name: "seed", Values: []int64{3, 5}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"pipeline": {
		Scenario: "pipeline",
		Axes: []serve.Axis{
			{Name: "xsize", Values: []int64{3, 4}},
			{Name: "seed", Values: []int64{3, 5}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"phased": {
		Scenario: "phased",
		Axes: []serve.Axis{
			{Name: "stages", Values: []int64{1, 2}},
			{Name: "seed", Values: []int64{3, 5}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"forkjoin": {
		Scenario: "forkjoin",
		Axes: []serve.Axis{
			{Name: "workers", Values: []int64{2, 3}},
			{Name: "seed", Values: []int64{3, 5}},
		},
		Params: map[string]int64{"tokens": 40},
	},
	"random": {
		// Every seed is its own structural shape: the sharpest sharding
		// test — four cohorts of two points each.
		Scenario: "random",
		Axes: []serve.Axis{
			{Name: "seed", Values: []int64{1, 2, 3, 4}},
			{Name: "tokens", Values: []int64{30, 40}},
		},
	},
	"lte": {
		Scenario: "lte",
		Axes: []serve.Axis{
			{Name: "symbols", Values: []int64{20, 30}},
			{Name: "seed", Values: []int64{3, 5}},
		},
	},
}

// The fabric's acceptance property: every registered zoo scenario ×
// engines {equivalent, hybrid, adaptive}, swept through a 3-worker
// in-process fleet with batched lanes and small chunks (so every job
// spans several chunks and cohorts split across dispatches), is
// bit-identical to the single-process sweep of the same request —
// per-point engine counters, error strings, event ratios, point/shape
// counts, batch counts and batched-cohort occupancy. The hybrid engine
// runs wherever the scenario declares a canonical group, exactly as the
// single-process API would accept it.
func TestFleetSweepBitIdenticalOnEveryScenario(t *testing.T) {
	scenarios := zoo.Scenarios()
	if len(scenarios) < 7 {
		t.Fatalf("scenario registry holds %d scenarios, want at least 7", len(scenarios))
	}
	workers := newFleet(t, 3)
	_, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 4})

	for _, sc := range scenarios {
		req, ok := scenarioSweeps[sc.Name]
		if !ok {
			t.Fatalf("scenario %q has no sweep spec in this test; add one", sc.Name)
		}
		for _, engineName := range []string{"equivalent", "hybrid", "adaptive"} {
			if engineName == "hybrid" && sc.HybridGroup == nil {
				continue // no canonical group; the API rejects it either way
			}
			t.Run(sc.Name+"/"+engineName, func(t *testing.T) {
				r := req
				r.Engine = engineName
				r.Options.BatchWidth = 2
				// Aggregate statistics need the baseline ratios on at
				// least one configuration; keep it to the cheapest
				// scenario so the suite stays fast. Adaptive runs no
				// kernel, so its event ratios are undefined and left out
				// of the aggregate on both sides.
				if sc.Name == "didactic" && engineName != "hybrid" {
					r.Options.Baseline = true
				}

				job := submitSweep(t, ts.URL, r)
				res := waitTerminal(t, ts.URL, job.ID)
				local := localSweep(t, r)
				assertBitIdentical(t, res, local)
				uniqueIndexParams(t, res.Points)
			})
		}
	}
}
