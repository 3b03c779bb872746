package engine_test

import (
	"context"
	"errors"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"

	// Link every executor and the LTE scenario into the test binary.
	_ "dyncomp/internal/adaptive"
	_ "dyncomp/internal/baseline"
	_ "dyncomp/internal/core"
	_ "dyncomp/internal/hybrid"
	_ "dyncomp/internal/lte"
)

// testParams keeps every scenario small enough for a property-style
// sweep; each builder picks the parameters it knows.
var testParams = zoo.ParamMap{
	"tokens":  60,
	"symbols": 28,
	"xsize":   5,
	"stages":  2,
	"workers": 3,
	"seed":    3,
}

// The acceptance property of the whole refactor: every registered
// engine × every registered scenario produces evolution instants
// bit-exact against the reference executor. The hybrid engine runs
// wherever the scenario declares a canonical group.
func TestEveryEngineOnEveryScenarioBitExact(t *testing.T) {
	ctx := context.Background()
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	engines := engine.Names()
	if len(engines) < 4 {
		t.Fatalf("registry holds %v, want at least the four built-in executors", engines)
	}
	scenarios := zoo.Scenarios()
	if len(scenarios) < 7 {
		t.Fatalf("scenario registry holds %d scenarios, want at least 7", len(scenarios))
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rr, err := ref.Run(ctx, sc.Build(testParams), engine.Options{Record: true})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, name := range engines {
				if name == "reference" {
					continue
				}
				eng, err := engine.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := engine.Options{Record: true, AbstractGroup: sc.GroupFor(name, testParams)}
				if name == "hybrid" && opts.AbstractGroup == nil {
					continue // no canonical group to abstract
				}
				r, err := eng.Run(ctx, sc.Build(testParams), opts)
				if err != nil {
					t.Errorf("%s on %s: %v", name, sc.Name, err)
					continue
				}
				if err := observe.CompareInstants(rr.Trace, r.Trace); err != nil {
					t.Errorf("%s differs from reference on %s: %v", name, sc.Name, err)
				}
			}
		})
	}
}

// Options.LimitNs is part of the same contract: cut mid-run at half the
// unlimited final time, every engine records exactly the instants the
// equally-limited reference executor reaches — none past the limit —
// on every scenario, scalar and batched alike.
func TestLimitNsMidRunBitExact(t *testing.T) {
	ctx := context.Background()
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	eq, err := engine.Lookup("equivalent")
	if err != nil {
		t.Fatal(err)
	}
	br := eq.(engine.BatchRunner)
	for _, sc := range zoo.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			full, err := ref.Run(ctx, sc.Build(testParams), engine.Options{})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			limit := full.FinalTimeNs / 2
			rr, err := ref.Run(ctx, sc.Build(testParams), engine.Options{Record: true, LimitNs: limit})
			if err != nil {
				t.Fatalf("limited reference: %v", err)
			}
			for _, name := range engine.Names() {
				if name == "reference" {
					continue
				}
				eng, err := engine.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := engine.Options{Record: true, LimitNs: limit, AbstractGroup: sc.GroupFor(name, testParams)}
				if name == "hybrid" && opts.AbstractGroup == nil {
					continue
				}
				r, err := eng.Run(ctx, sc.Build(testParams), opts)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if err := observe.CompareInstants(rr.Trace, r.Trace); err != nil {
					t.Errorf("%s differs under LimitNs %d: %v", name, limit, err)
				}
			}
			lanes, laneErrs, err := br.RunBatch(ctx, []*model.Architecture{sc.Build(testParams), sc.Build(testParams)},
				engine.Options{Record: true, LimitNs: limit})
			if err != nil {
				t.Fatalf("RunBatch: %v", err)
			}
			for l, r := range lanes {
				if laneErrs[l] != nil {
					t.Errorf("batch lane %d: %v", l, laneErrs[l])
					continue
				}
				if err := observe.CompareInstants(rr.Trace, r.Trace); err != nil {
					t.Errorf("batch lane %d differs under LimitNs %d: %v", l, limit, err)
				}
			}
		})
	}
}

// Options.IterLimit is part of the uniform contract: every engine
// truncated to the same iteration prefix stays bit-exact against the
// equally-truncated reference executor.
func TestIterLimitUniformAcrossEngines(t *testing.T) {
	ctx := context.Background()
	sc, err := zoo.LookupScenario("didactic")
	if err != nil {
		t.Fatal(err)
	}
	const limit = 10
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ref.Run(ctx, sc.Build(testParams), engine.Options{Record: true, IterLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rr.Trace.Instants("M6_2")); n != limit {
		t.Fatalf("reference ran %d iterations under IterLimit %d", n, limit)
	}
	for _, name := range engine.Names() {
		if name == "reference" {
			continue
		}
		eng, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := engine.Options{Record: true, IterLimit: limit, AbstractGroup: sc.GroupFor(name, testParams)}
		r, err := eng.Run(ctx, sc.Build(testParams), opts)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := observe.CompareInstants(rr.Trace, r.Trace); err != nil {
			t.Errorf("%s differs under IterLimit: %v", name, err)
		}
	}
}

// A cancelled context stops every engine before it starts.
func TestEnginesHonorPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc, err := zoo.LookupScenario("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range engine.Names() {
		eng, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := engine.Options{AbstractGroup: sc.GroupFor(name, testParams)}
		if _, err := eng.Run(ctx, sc.Build(testParams), opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// The adaptive engine reports progress at phase boundaries: nondecreasing
// completed-iteration counts ending at the total.
func TestAdaptiveProgressCallback(t *testing.T) {
	eng, err := engine.Lookup("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := zoo.LookupScenario("phased")
	if err != nil {
		t.Fatal(err)
	}
	params := zoo.ParamMap{"tokens": 200}
	var calls []int
	r, err := eng.Run(context.Background(), sc.Build(params), engine.Options{
		Progress: func(done, total int) {
			if total != 200 {
				t.Fatalf("total = %d, want 200", total)
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) < 2 {
		t.Fatalf("progress called %d times, want at least one per phase (>= 2)", len(calls))
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] < calls[i-1] {
			t.Fatalf("progress went backwards: %v", calls)
		}
	}
	if last := calls[len(calls)-1]; last != r.Iterations {
		t.Fatalf("final progress %d != iterations %d", last, r.Iterations)
	}
}
