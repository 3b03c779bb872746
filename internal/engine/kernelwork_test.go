package engine_test

import (
	"context"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/zoo"
)

// The kernel work of the event-driven engines is deterministic, so it is
// pinned exactly on the two architectures of the engine benchmark. The
// reference executor's counts are the paper's baseline and must never
// move. The equivalent model pays one event per boundary transfer and
// one per emission; hybrid pays the simulated rest plus the same, with
// no evaluation process and no broadcast wake-up. A change that adds a
// wake-up to any of them shows here first.
func TestKernelWorkPinned(t *testing.T) {
	type work struct{ events, activations int64 }
	cases := []struct {
		scenario string
		params   zoo.ParamMap
		want     map[string]work
	}{
		{"didactic", zoo.ParamMap{"tokens": 2000, "seed": 1}, map[string]work{
			"reference":  {32006, 28006},
			"equivalent": {10003, 10003},
			"hybrid":     {26006, 26006},
		}},
		{"chain", zoo.ParamMap{"stages": 4, "tokens": 2000, "seed": 1}, map[string]work{
			"reference":  {116018, 100018},
			"equivalent": {10003, 10003},
			"hybrid":     {110018, 98018},
		}},
	}
	for _, tc := range cases {
		sc, err := zoo.LookupScenario(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"reference", "equivalent", "hybrid"} {
			eng, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background(), sc.Build(tc.params),
				engine.Options{AbstractGroup: sc.GroupFor(name, tc.params)})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, tc.scenario, err)
			}
			got, want := work{res.Events, res.Activations}, tc.want[name]
			if got != want {
				t.Errorf("%s on %s: %d events, %d activations; want %d, %d",
					name, tc.scenario, got.events, got.activations, want.events, want.activations)
			}
		}
	}
}

// Abstracting a group must never cost the kernel more events than
// simulating it: on every scenario with a canonical group (the LTE
// receiver's is its DSP cluster), across sizes and source regimes,
// hybrid's events stay at or below the reference executor's.
func TestHybridEventsNeverExceedReference(t *testing.T) {
	ctx := context.Background()
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := engine.Lookup("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	params := []zoo.ParamMap{
		testParams,
		{"tokens": 300, "symbols": 280, "seed": 5},
		{"tokens": 200, "symbols": 140, "stages": 3, "xsize": 8, "workers": 5, "seed": 9, "period": 0},
		{"tokens": 200, "workers": 2, "seed": 11, "period": 300},
		{"tokens": 200, "period": 5000, "seed": 2},
	}
	ran := map[string]bool{}
	for _, sc := range zoo.Scenarios() {
		if sc.HybridGroup == nil {
			continue
		}
		for _, p := range params {
			rr, err := ref.Run(ctx, sc.Build(p), engine.Options{})
			if err != nil {
				t.Fatalf("reference on %s %v: %v", sc.Name, p, err)
			}
			hr, err := hyb.Run(ctx, sc.Build(p), engine.Options{AbstractGroup: sc.GroupFor("hybrid", p)})
			if err != nil {
				t.Fatalf("hybrid on %s %v: %v", sc.Name, p, err)
			}
			if hr.Events > rr.Events {
				t.Errorf("%s %v: hybrid %d events, reference %d", sc.Name, p, hr.Events, rr.Events)
			}
			ran[sc.Name] = true
		}
	}
	for _, name := range []string{"didactic", "chain", "pipeline", "phased", "forkjoin", "lte"} {
		if !ran[name] {
			t.Errorf("scenario %q has no canonical group to check", name)
		}
	}
}
