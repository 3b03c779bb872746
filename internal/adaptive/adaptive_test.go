package adaptive

import (
	"context"
	"fmt"
	"testing"

	"dyncomp/internal/baseline"
	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// run runs the adaptive engine on a and checks that it paid no kernel
// work, whatever the options.
func run(t *testing.T, a *model.Architecture, opts engine.Options) *engine.Result {
	t.Helper()
	res, err := adEngine{}.Run(context.Background(), a, opts)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if res.Events != 0 || res.Activations != 0 || res.Switches != 0 {
		t.Fatalf("adaptive paid kernel work: %+v", res)
	}
	return res
}

// refTrace runs the pure reference executor on a fresh architecture
// instance and returns its trace and stats.
func refTrace(t *testing.T, build func() *model.Architecture) (*observe.Trace, *baseline.Result) {
	t.Helper()
	tr := observe.NewTrace("reference")
	res, err := baseline.Run(build(), baseline.Options{Trace: tr})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return tr, res
}

// scenarios is the full test matrix: steady plateaus, noisy transients,
// eager sources, FIFO backpressure and chains must all produce a
// bit-exact adaptive trace.
func scenarios() map[string]func() *model.Architecture {
	return map[string]func() *model.Architecture{
		"didactic-random": func() *model.Architecture {
			// Per-iteration random sizes: never steady.
			return zoo.Didactic(zoo.DidacticSpec{Tokens: 120, Period: 1200, Seed: 41})
		},
		"didactic-constant": func() *model.Architecture {
			// One steady regime.
			return zoo.Didactic(zoo.DidacticSpec{Tokens: 200, Period: 1200,
				Sizes: func(int) int64 { return 128 }})
		},
		"didactic-eager-constant": func() *model.Architecture {
			// Eager source: rate set purely by backpressure.
			return zoo.Didactic(zoo.DidacticSpec{Tokens: 200,
				Sizes: func(int) int64 { return 96 }})
		},
		"phased": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 600, Period: 1100, Seed: 7})
		},
		"phased-eager": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 400, Seed: 11})
		},
		"phased-fifo": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 400, Period: 1100, Seed: 13, UseFIFO: true})
		},
		"phased-fifo-eager": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 300, Seed: 17, UseFIFO: true})
		},
		"phased-chain": func() *model.Architecture {
			return zoo.Phased(zoo.PhasedSpec{Tokens: 300, Period: 1300, Seed: 19, Stages: 3})
		},
		"pipeline-steady": func() *model.Architecture {
			return zoo.Pipeline(zoo.PipelineSpec{XSize: 8, Tokens: 200, Period: 600, Seed: 0})
		},
	}
}

// TestBitExactVsReference is the acceptance guard: on every scenario the
// adaptive engine's trace and final time agree bit-exact with the
// reference executor's.
func TestBitExactVsReference(t *testing.T) {
	for name, build := range scenarios() {
		t.Run(name, func(t *testing.T) {
			want, ref := refTrace(t, build)
			res := run(t, build(), engine.Options{Record: true})
			if err := observe.CompareInstants(want, res.Trace); err != nil {
				t.Fatalf("trace differs: %v", err)
			}
			if res.FinalTimeNs != int64(ref.Stats.FinalTime) {
				t.Fatalf("final time %d, reference %d", res.FinalTimeNs, ref.Stats.FinalTime)
			}
		})
	}
}

// TestActivitiesMatchReference checks that the reconstructed resource
// activities (not only the instants) agree with the reference executor.
// Recording order within a resource differs between engines (the
// simulator interleaves by start time, the computed reconstruction goes
// iteration by iteration — same as the equivalent model), so activities
// are compared as sets keyed by (label, iteration).
func TestActivitiesMatchReference(t *testing.T) {
	build := func() *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 300, Period: 1100, Seed: 7})
	}
	want, _ := refTrace(t, build)
	got := run(t, build(), engine.Options{Record: true}).Trace
	key := func(a observe.Activity) string { return fmt.Sprintf("%s/%d", a.Label, a.K) }
	for _, res := range want.Resources() {
		wa, ga := want.Activities(res), got.Activities(res)
		if len(wa) != len(ga) {
			t.Fatalf("resource %s: %d vs %d activities", res, len(wa), len(ga))
		}
		byKey := make(map[string]observe.Activity, len(wa))
		for _, a := range wa {
			byKey[key(a)] = a
		}
		for _, a := range ga {
			if w, ok := byKey[key(a)]; !ok || w != a {
				t.Fatalf("resource %s activity %+v: reference has %+v", res, a, w)
			}
		}
	}
}

// TestKernelFreeAcrossPhases is the paper-facing acceptance criterion:
// on the phase-changing workload, whose plateaus and transients follow
// each other, the adaptive engine computes every iteration at zero
// kernel events and zero activations while staying bit-exact.
func TestKernelFreeAcrossPhases(t *testing.T) {
	build := func() *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 1200, Period: 1100, Seed: 7})
	}
	want, ref := refTrace(t, build)
	res := run(t, build(), engine.Options{Record: true})
	if err := observe.CompareInstants(want, res.Trace); err != nil {
		t.Fatalf("trace differs: %v", err)
	}
	if ref.Stats.Events() == 0 {
		t.Fatal("reference paid no kernel events")
	}
	if res.Iterations != 1200 {
		t.Fatalf("%d iterations, want 1200", res.Iterations)
	}
	if res.FinalTimeNs != int64(ref.Stats.FinalTime) {
		t.Fatalf("final time %d, reference %d", res.FinalTimeNs, ref.Stats.FinalTime)
	}
}

// TestDeterminism requires two adaptive runs to agree exactly.
func TestDeterminism(t *testing.T) {
	build := func() *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 500, Period: 1100, Seed: 23, UseFIFO: true})
	}
	r1 := run(t, build(), engine.Options{Record: true})
	r2 := run(t, build(), engine.Options{Record: true})
	if err := observe.CompareInstants(r1.Trace, r2.Trace); err != nil {
		t.Fatalf("runs differ: %v", err)
	}
	if r1.FinalTimeNs != r2.FinalTimeNs || r1.Iterations != r2.Iterations {
		t.Fatalf("results differ: %+v vs %+v", r1, r2)
	}
}

// TestSharedCacheRebinds verifies that the engine obtains its graph
// through a shared structure-keyed cache: across two runs of one shape,
// the first derivation misses and the second re-binds.
func TestSharedCacheRebinds(t *testing.T) {
	cache := derive.NewCache()
	build := func(seed int64) *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 400, Period: 1100, Seed: seed})
	}
	before := derive.Calls()
	run(t, build(7), engine.Options{Cache: cache})
	run(t, build(8), engine.Options{Cache: cache})
	if got := derive.Calls() - before; got != 1 {
		t.Fatalf("Derive ran %d times across two adaptive runs, want 1", got)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats: %d hits, %d misses, want 1 and 1", hits, misses)
	}
}

// TestTimeLimitTruncates checks that a simulated-time limit stops the
// run early, counts only iterations recorded whole, and ends at the
// limit, as the reference executor does.
func TestTimeLimitTruncates(t *testing.T) {
	build := func() *model.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 400, Period: 1100, Seed: 7})
	}
	full := run(t, build(), engine.Options{})
	for _, div := range []int64{4, 100} {
		limit := full.FinalTimeNs / div
		lim := run(t, build(), engine.Options{Record: true, LimitNs: limit})
		if lim.Iterations >= full.Iterations {
			t.Fatalf("limit/%d did not truncate: %d vs %d iterations", div, lim.Iterations, full.Iterations)
		}
		if lim.FinalTimeNs != limit {
			t.Fatalf("limit/%d: final time %d, want the limit %d", div, lim.FinalTimeNs, limit)
		}
		tr := lim.Trace
		for _, label := range tr.Labels() {
			if n := len(tr.Instants(label)); n < lim.Iterations {
				t.Fatalf("limit/%d: %d iterations reported but label %q evolved only %d times",
					div, lim.Iterations, label, n)
			}
		}
	}
}

// TestRejectsInvalid propagates model validation errors.
func TestRejectsInvalid(t *testing.T) {
	a := model.NewArchitecture("broken")
	a.AddChannel("M", model.Rendezvous, 0)
	if _, err := (adEngine{}).Run(context.Background(), a, engine.Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}
