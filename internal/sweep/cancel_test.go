package sweep

import (
	"context"
	"errors"
	"testing"

	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// A context cancelled before the sweep starts must stop everything: no
// point evaluates, every point carries the context error, and RunContext
// returns it with the (all-failed) stats.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	axes := []Axis{{Name: "seed", Values: []int64{1, 2, 3, 4}}}
	res, err := RunContext(ctx, axes, pipelineGen(false), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	if res.Stats.Points != 4 || res.Stats.Failed != 4 {
		t.Fatalf("stats = %+v, want 4 points all failed", res.Stats)
	}
	for i, pr := range res.Points {
		if !errors.Is(pr.Err, context.Canceled) {
			t.Fatalf("point %d err = %v, want context.Canceled", i, pr.Err)
		}
	}
}

// Cancelling mid-sweep stops dispatching: already-evaluated points keep
// their results (partial stats), the rest fail with ctx.Err(), and
// RunContext returns ctx.Err(). A single worker makes the dispatch order
// deterministic: the generator cancels while building point 2, so points
// 0 and 1 complete and points 2 and 3 fail.
func TestRunContextCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	axes := []Axis{{Name: "seed", Values: []int64{0, 1, 2, 3}}}
	res, err := RunContext(ctx, axes, func(p Point) (*model.Architecture, error) {
		if p.Get("seed", 0) == 2 {
			cancel()
		}
		return zoo.Pipeline(zoo.PipelineSpec{XSize: 4, Tokens: 10, Seed: p.Get("seed", 0)}), nil
	}, Options{Workers: 1, Record: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stats.Points != 4 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	for i, pr := range res.Points[:2] {
		if pr.Err != nil {
			t.Fatalf("completed point %d lost: %v", i, pr.Err)
		}
		if pr.Run.Iterations == 0 || pr.Run.FinalTimeNs == 0 || pr.Trace == nil {
			t.Fatalf("completed point %d has empty stats: %+v", i, pr.Run)
		}
	}
	for i, pr := range res.Points[2:] {
		if !errors.Is(pr.Err, context.Canceled) {
			t.Fatalf("point %d err = %v, want context.Canceled", i+2, pr.Err)
		}
	}
	if res.Stats.Failed != 2 {
		t.Fatalf("failed = %d, want 2", res.Stats.Failed)
	}
}

// The hybrid engine is a first-class sweep engine: points run with the
// named group abstracted and stay bit-exact against the paired
// reference baseline.
func TestHybridEngineInSweep(t *testing.T) {
	axes := []Axis{
		{Name: "tokens", Values: []int64{20, 35}},
		{Name: "seed", Values: []int64{1, 2}},
	}
	sc, err := zoo.LookupScenario("forkjoin")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(p Point) (*model.Architecture, error) { return sc.Build(p), nil }
	res, err := Run(axes, gen, Options{
		Workers:  2,
		Engine:   "hybrid",
		Group:    sc.HybridGroup(zoo.ParamMap{}),
		Baseline: true,
		Record:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Points {
		if pr.Err != nil {
			t.Fatalf("point %d: %v", i, pr.Err)
		}
		if pr.Run.GraphNodes == 0 {
			t.Fatalf("point %d: hybrid derived no graph", i)
		}
		if err := observe.CompareInstants(pr.BaselineTrace, pr.Trace); err != nil {
			t.Fatalf("point %d not bit-exact: %v", i, err)
		}
	}
	// One sub-architecture shape, derived once, re-bound 3 times.
	if res.Stats.Shapes != 1 || res.Stats.CacheHits != 3 {
		t.Fatalf("hybrid derive sharing broken: %+v", res.Stats)
	}
}

// Regression: an axis that changes the architecture's structure (the
// fork-join worker count) changes the hybrid group with it, so the
// group must be resolved per point via Options.GroupFor — a single
// static group would only fit the first worker count.
func TestHybridGroupResolvedPerPoint(t *testing.T) {
	sc, err := zoo.LookupScenario("forkjoin")
	if err != nil {
		t.Fatal(err)
	}
	axes := []Axis{
		{Name: "workers", Values: []int64{2, 3, 4}},
		{Name: "tokens", Values: []int64{15}},
	}
	res, err := Run(axes, func(p Point) (*model.Architecture, error) { return sc.Build(p), nil }, Options{
		Engine:   "hybrid",
		GroupFor: func(p Point) []string { return sc.HybridGroup(p) },
		Record:   true,
		Baseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Points {
		if pr.Err != nil {
			t.Fatalf("point %d (%s): %v", i, pr.Point, pr.Err)
		}
		if err := observe.CompareInstants(pr.BaselineTrace, pr.Trace); err != nil {
			t.Fatalf("point %d not bit-exact: %v", i, err)
		}
	}
	// Three worker counts are three distinct sub-architecture shapes.
	if res.Stats.Shapes != 3 {
		t.Fatalf("shapes = %d, want 3", res.Stats.Shapes)
	}
}

// An unknown engine name is unusable input, reported before any point
// runs.
func TestUnknownEngineName(t *testing.T) {
	axes := []Axis{{Name: "a", Values: []int64{1}}}
	if _, err := Run(axes, pipelineGen(false), Options{Engine: "warp-drive"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}
