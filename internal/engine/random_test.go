package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// The cross-engine property wall: on generated architectures (zoo.Random
// seeds: pipelines and fork-join diamonds over mixed channel protocols,
// shared and dedicated resources, data-dependent durations), every
// registered engine reproduces the reference executor's instants,
// activities and final time bit for bit — without a limit, under
// IterLimit, and under a LimitNs cutting the run mid-way. So does every
// lane of a batched adaptive run, at random widths from 1 to 16 on every
// fourth seed, which also matches its own scalar run, iteration count
// included. Hybrid, which needs a group, abstracts every function, and
// no engine may answer an error.
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
	br := batchRunner(t)
	rng := rand.New(rand.NewSource(1))
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
					a := sc.Build(params)
					opts.AbstractGroup = sc.GroupFor(name, params)
					// Without a canonical group hybrid abstracts every
					// function. Every random architecture's outputs are
					// read by sinks, so that group is in scope too.
					if name == "hybrid" && opts.AbstractGroup == nil {
						for _, f := range a.Functions {
							opts.AbstractGroup = append(opts.AbstractGroup, f.Name)
						}
					}
					got, err := eng.Run(ctx, a, opts)
					if err != nil {
						t.Errorf("seed %d tokens %d %s: %s: %v", seed, tokens, lim.name, name, err)
						continue
					}
					if err := compareRuns(want, got); err != nil {
						t.Errorf("seed %d tokens %d %s: %s differs from reference: %v", seed, tokens, lim.name, name, err)
					}
				}
				// Every fourth seed also runs batched adaptive lanes at a
				// drawn width; the lanes differ in token count, so they
				// retire at different iterations.
				if seed%4 != 0 {
					continue
				}
				width := 1 + rng.Intn(16)
				archs := make([]*model.Architecture, width)
				for l := range archs {
					archs[l] = sc.Build(laneTokens(params, l))
				}
				lanes, laneErrs, err := br.RunBatch(ctx, archs, opts)
				if err != nil {
					t.Fatalf("seed %d tokens %d %s: RunBatch of %d lanes: %v", seed, tokens, lim.name, width, err)
				}
				for l, lane := range lanes {
					if laneErrs[l] != nil {
						t.Errorf("seed %d tokens %d %s: lane %d of %d: %v", seed, tokens, lim.name, l, width, laneErrs[l])
						continue
					}
					lp := laneTokens(params, l)
					scalar, err := br.Run(ctx, sc.Build(lp), opts)
					if err != nil {
						t.Fatalf("seed %d tokens %d %s: lane %d scalar run: %v", seed, tokens, lim.name, l, err)
					}
					if err := compareLane(scalar, lane); err != nil {
						t.Errorf("seed %d tokens %d %s: lane %d of %d differs from its scalar run: %v", seed, tokens, lim.name, l, width, err)
					}
					want, err := ref.Run(ctx, sc.Build(lp), opts)
					if err != nil {
						t.Fatalf("seed %d tokens %d %s: lane %d reference: %v", seed, tokens, lim.name, l, err)
					}
					if err := compareRuns(want, lane); err != nil {
						t.Errorf("seed %d tokens %d %s: lane %d of %d differs from reference: %v", seed, tokens, lim.name, l, width, err)
					}
				}
			}
		}
	}
}

// laneTokens gives batch lane l of a random-architecture point l more
// tokens than the point itself: the topology (a function of the seed)
// stays, so every lane shares one structural shape.
func laneTokens(params zoo.ParamMap, l int) zoo.ParamMap {
	return zoo.ParamMap{"seed": params["seed"], "tokens": params["tokens"] + int64(l)}
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
