package dyncomp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dyncomp/internal/zoo"
)

// The registry facade must expose the four executors.
func TestEnginesListsFourExecutors(t *testing.T) {
	names := Engines()
	want := map[string]bool{"adaptive": true, "equivalent": true, "hybrid": true, "reference": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("Engines() = %v, missing %v", names, want)
	}
}

// Run reaches every engine by name, and RunAdaptive — the one direct
// entry point left beside it — runs the same adaptive engine: its
// results must match Run's field for field.
func TestRunMatchesLegacyWrappers(t *testing.T) {
	ctx := context.Background()
	ref, err := Run(ctx, "reference", buildSmoke(200), EngineOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"equivalent", "adaptive"} {
		r, err := Run(ctx, name, buildSmoke(200), EngineOptions{Record: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := CompareTraces(ref.Trace, r.Trace); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	direct, err := RunAdaptive(buildSmoke(200), AdaptiveOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	viaRun, err := Run(ctx, "adaptive", buildSmoke(200), EngineOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Activations != viaRun.Activations || direct.Events != viaRun.Events ||
		direct.FinalTimeNs != viaRun.FinalTimeNs || direct.GraphNodes != viaRun.GraphNodes ||
		direct.Switches != viaRun.Switches || direct.Fallbacks != viaRun.Fallbacks {
		t.Fatalf("RunAdaptive and Run disagree:\n%+v\n%+v", direct, viaRun)
	}
	if err := CompareTraces(direct.Trace, viaRun.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestRunHybridViaRegistry(t *testing.T) {
	ref, err := Run(context.Background(), "reference", buildSmoke(150), EngineOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), "hybrid", buildSmoke(150), EngineOptions{
		Record:        true,
		AbstractGroup: []string{"stage2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareTraces(ref.Trace, r.Trace); err != nil {
		t.Fatal(err)
	}
	if r.GraphNodes == 0 {
		t.Fatal("hybrid derived no graph")
	}
}

func TestRunUnknownEngine(t *testing.T) {
	if _, err := Run(context.Background(), "warp-drive", buildSmoke(5), EngineOptions{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// SweepContext must return partial results with the context error, and
// the hybrid engine must be selectable by name.
func TestSweepContextCancelledAndHybridByName(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	axes := []SweepAxis{{Name: "seed", Values: []int64{1, 2}}}
	gen := func(p SweepPoint) (*Architecture, error) {
		return zoo.Pipeline(zoo.PipelineSpec{XSize: 4, Tokens: 10, Seed: p.Get("seed", 0)}), nil
	}
	res, err := SweepContext(ctx, axes, gen, SweepOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Points) != 2 {
		t.Fatalf("partial result missing: %+v", res)
	}

	sc, err := zoo.LookupScenario("forkjoin")
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Sweep(axes, func(p SweepPoint) (*Architecture, error) {
		return zoo.ForkJoin(zoo.ForkJoinSpec{Workers: 3, Tokens: 15, Seed: p.Get("seed", 0)}), nil
	}, SweepOptions{EngineName: "hybrid", Group: sc.HybridGroup(zoo.ParamMap{}), Record: true, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range sres.Points {
		if pr.Err != nil {
			t.Fatalf("point %d: %v", i, pr.Err)
		}
		if err := CompareTraces(pr.Baseline.Trace, pr.Trace); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
}

// A shared Cache derives each structural shape once across independent
// Run and Sweep calls, and Progress hooks fire on both paths.
func TestSharedCacheAndProgressAcrossRunsAndSweeps(t *testing.T) {
	cache := NewCache()
	ctx := context.Background()

	runDone := 0
	if _, err := Run(ctx, "equivalent", buildSmoke(100), EngineOptions{
		Cache:    cache,
		Progress: func(done, total int) { runDone = done },
	}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after first run: hits %d misses %d, want 0/1", hits, misses)
	}
	if runDone == 0 {
		t.Fatal("run progress hook never fired")
	}

	if _, err := Run(ctx, "equivalent", buildSmoke(100), EngineOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("second run no cache hit: hits %d misses %d", hits, misses)
	}
	if cache.Shapes() != 1 {
		t.Fatalf("shapes = %d, want 1", cache.Shapes())
	}

	// Deliveries may be observed out of order; track the max.
	var sweepDone atomic.Int64
	res, err := Sweep([]SweepAxis{{Name: "tokens", Values: []int64{50, 100, 150}}},
		func(p SweepPoint) (*Architecture, error) { return buildSmoke(int(p.Get("tokens", 100))), nil },
		SweepOptions{
			Cache: cache,
			Progress: func(done, total int) {
				for {
					cur := sweepDone.Load()
					if int64(done) <= cur || sweepDone.CompareAndSwap(cur, int64(done)) {
						return
					}
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	// Same structural shape as the two direct runs: zero derivations in
	// the sweep, three more hits.
	if res.Stats.DeriveCalls != 1 || res.Stats.CacheHits != 4 {
		t.Fatalf("sweep stats %+v, want the shared cache's 1 derivation / 4 hits", res.Stats)
	}
	if got := sweepDone.Load(); got != 3 {
		t.Fatalf("sweep progress reached %d, want 3", got)
	}
}
