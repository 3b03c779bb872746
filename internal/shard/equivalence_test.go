package shard

import (
	"context"
	"reflect"
	"testing"

	"dyncomp/internal/engine"
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

// The fleet of one on the random wall: a random-scenario sweep sent to
// a single serve.Server and to a coordinator over one worker returns
// the same points in grid order and the same statistics — all but the
// wall-clock and derivation-cache numbers, which are per process — and
// every point's final time, events, activations and iterations equal a
// direct engine.Run of its model. Equivalent runs per point, adaptive
// in batches of 4 (the tokens axis gives every seed's shape a cohort of
// two).
func TestFleetOfOneOnRandomWall(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	values := make([]int64, seeds)
	for i := range values {
		values[i] = int64(i)
	}
	tokens := []int64{3, 40}
	sc, err := zoo.LookupScenario("random")
	if err != nil {
		t.Fatal(err)
	}
	_, server := newServe(t, serve.Config{})
	_, cts := newCoord(t, Config{Workers: newFleet(t, 1)})
	coord := cts.URL

	for _, tc := range []struct {
		engine string
		width  int
	}{{"equivalent", 0}, {"adaptive", 4}} {
		t.Run(tc.engine, func(t *testing.T) {
			req := serve.SweepRequest{
				Engine:   tc.engine,
				Scenario: "random",
				Axes:     []serve.Axis{{Name: "seed", Values: values}, {Name: "tokens", Values: tokens}},
				Options:  serve.SweepOptions{BatchWidth: tc.width},
			}
			one := waitTerminal(t, server, submitSweep(t, server, req).ID)
			fleet := waitTerminal(t, coord, submitSweep(t, coord, req).ID)
			if one.State != "done" || fleet.State != "done" {
				t.Fatalf("settled as %q (%s) and %q (%s), want done", one.State, one.Error, fleet.State, fleet.Error)
			}
			if len(one.Points) != 2*seeds || len(fleet.Points) != len(one.Points) {
				t.Fatalf("%d and %d points, want %d", len(one.Points), len(fleet.Points), 2*seeds)
			}

			eng, err := engine.Lookup(tc.engine)
			if err != nil {
				t.Fatal(err)
			}
			for i := range one.Points {
				a, b := one.Points[i], fleet.Points[i]
				for _, p := range []*serve.SweepPoint{&a, &b} {
					if p.Result != nil {
						r := *p.Result
						r.WallNs = 0
						p.Result = &r
					}
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("point %d: serve %+v, coordinator %+v", i, a, b)
				}
				params := zoo.ParamMap{"seed": a.Params["seed"], "tokens": a.Params["tokens"]}
				direct, err := eng.Run(context.Background(), sc.Build(params), engine.Options{})
				if err != nil {
					if a.Error == "" {
						t.Fatalf("point %d %v: direct run failed (%v), the sweep did not", i, params, err)
					}
					continue
				}
				if a.Error != "" {
					t.Fatalf("point %d %v: %s, the direct run succeeded", i, params, a.Error)
				}
				got := a.Result
				if got.FinalTimeNs != direct.FinalTimeNs || got.Events != direct.Events ||
					got.Activations != direct.Activations || got.Iterations != direct.Iterations {
					t.Fatalf("point %d %v: %+v, direct run %+v", i, params, *got, *direct)
				}
			}

			sa, sb := *one.Stats, *fleet.Stats
			for _, s := range []*serve.SweepStats{&sa, &sb} {
				s.WallNs, s.Shapes, s.DeriveCalls, s.CacheHits = 0, 0, 0, 0
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("stats: serve %+v, coordinator %+v", sa, sb)
			}
			if tc.width > 0 && sa.BatchedPoints != len(one.Points) {
				t.Fatalf("%d of %d points batched", sa.BatchedPoints, len(one.Points))
			}
		})
	}
}
