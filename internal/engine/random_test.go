package engine_test

import (
	"context"
	"fmt"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// The cross-engine property wall: on generated architectures (zoo.Random
// seeds: pipelines and fork-join diamonds over mixed channel protocols,
// shared and dedicated resources, data-dependent durations), every
// registered engine reproduces the reference executor's instants,
// activities and final time bit for bit — without a limit, under
// IterLimit, and under a LimitNs cutting the run mid-way.
func TestEveryEngineOnRandomArchitecturesBitExact(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 40
	}
	ctx := context.Background()
	sc, err := zoo.LookupScenario("random")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	for _, tokens := range []int64{3, 40} {
		for seed := int64(0); seed < int64(seeds); seed++ {
			params := zoo.ParamMap{"seed": seed, "tokens": tokens}
			full, err := ref.Run(ctx, sc.Build(params), engine.Options{})
			if err != nil {
				t.Fatalf("seed %d tokens %d: reference: %v", seed, tokens, err)
			}
			for _, lim := range []struct {
				name string
				opts engine.Options
			}{
				{"unlimited", engine.Options{}},
				{"half-time", engine.Options{LimitNs: full.FinalTimeNs / 2}},
				{"half-iterations", engine.Options{IterLimit: int(tokens / 2)}},
			} {
				opts := lim.opts
				opts.Record = true
				want, err := ref.Run(ctx, sc.Build(params), opts)
				if err != nil {
					t.Fatalf("seed %d tokens %d %s: reference: %v", seed, tokens, lim.name, err)
				}
				for _, name := range engine.Names() {
					if name == "reference" {
						continue
					}
					eng, err := engine.Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					opts.AbstractGroup = sc.GroupFor(name, params)
					if name == "hybrid" && opts.AbstractGroup == nil {
						continue
					}
					got, err := eng.Run(ctx, sc.Build(params), opts)
					if err != nil {
						t.Errorf("seed %d tokens %d %s: %s: %v", seed, tokens, lim.name, name, err)
						continue
					}
					if err := compareRuns(want, got); err != nil {
						t.Errorf("seed %d tokens %d %s: %s differs from reference: %v", seed, tokens, lim.name, name, err)
					}
				}
			}
		}
	}
}

// compareInstantsAndFinalTime checks two recorded runs for equal
// instants and equal final times.
func compareInstantsAndFinalTime(want, got *engine.Result) error {
	if err := observe.CompareInstants(want.Trace, got.Trace); err != nil {
		return err
	}
	if got.FinalTimeNs != want.FinalTimeNs {
		return fmt.Errorf("final time %d, reference %d", got.FinalTimeNs, want.FinalTimeNs)
	}
	return nil
}

// compareRuns checks two recorded runs for equal instants, equal
// activities per resource (as multisets: engines record them in
// different orders) and equal final times.
func compareRuns(want, got *engine.Result) error {
	if err := compareInstantsAndFinalTime(want, got); err != nil {
		return err
	}
	for _, res := range want.Trace.Resources() {
		wa, ga := want.Trace.Activities(res), got.Trace.Activities(res)
		if len(wa) != len(ga) {
			return fmt.Errorf("resource %s: %d vs %d activities", res, len(wa), len(ga))
		}
		count := map[observe.Activity]int{}
		for _, a := range wa {
			count[a]++
		}
		for _, a := range ga {
			if count[a] == 0 {
				return fmt.Errorf("resource %s: activity %+v not in reference", res, a)
			}
			count[a]--
		}
	}
	return nil
}
