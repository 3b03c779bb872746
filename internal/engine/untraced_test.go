package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/zoo"
)

// The untraced wall. Without a trace or a time limit a run's products
// are its final time and its iteration count, and the kernel-free paths
// reconstruct only the last iteration. On zoo.Random seeds, every
// engine run untraced — without a limit and under IterLimit — reports
// the untraced reference's final time and its own traced run's
// iteration count (the reference executor counts no iterations). So does
// every lane of an untraced batched adaptive run, at random widths from
// 1 to 16 on every fourth seed. Hybrid abstracts every function: it is
// exact or answers an error.
func TestEveryEngineUntracedOnRandomArchitectures(t *testing.T) {
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
	rng := rand.New(rand.NewSource(2))
	// check compares an untraced run with the untraced reference's final
	// time and the traced run's iteration count.
	check := func(what string, got, want, traced *engine.Result) {
		t.Helper()
		if got.FinalTimeNs != want.FinalTimeNs || got.Iterations != traced.Iterations {
			t.Errorf("%s: final time %d, iterations %d; reference final time %d, traced iterations %d",
				what, got.FinalTimeNs, got.Iterations, want.FinalTimeNs, traced.Iterations)
		}
	}
	for _, tokens := range []int64{3, 40} {
		for seed := int64(0); seed < int64(seeds); seed++ {
			params := zoo.ParamMap{"seed": seed, "tokens": tokens}
			for _, lim := range []struct {
				name string
				opts engine.Options
			}{
				{"unlimited", engine.Options{}},
				{"half-iterations", engine.Options{IterLimit: int(tokens / 2)}},
			} {
				opts := lim.opts
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
					wholeGroup := name == "hybrid" && opts.AbstractGroup == nil
					if wholeGroup {
						for _, f := range a.Functions {
							opts.AbstractGroup = append(opts.AbstractGroup, f.Name)
						}
					}
					got, err := eng.Run(ctx, a, opts)
					if err != nil {
						if !wholeGroup {
							t.Errorf("seed %d tokens %d %s: %s: %v", seed, tokens, lim.name, name, err)
						}
						continue
					}
					traced := opts
					traced.Record = true
					tr, err := eng.Run(ctx, sc.Build(params), traced)
					if err != nil {
						t.Fatalf("seed %d tokens %d %s: %s traced: %v", seed, tokens, lim.name, name, err)
					}
					check(name, got, want, tr)
				}
				if seed%4 != 0 {
					continue
				}
				width := 1 + rng.Intn(16)
				archs := make([]*model.Architecture, width)
				for l := range archs {
					archs[l] = sc.Build(laneTokens(params, l))
				}
				lanes, laneErrs, err := br.RunBatch(ctx, archs, lim.opts)
				if err != nil {
					t.Fatalf("seed %d tokens %d %s: RunBatch of %d lanes: %v", seed, tokens, lim.name, width, err)
				}
				for l, lane := range lanes {
					if laneErrs[l] != nil {
						t.Errorf("seed %d tokens %d %s: lane %d of %d: %v", seed, tokens, lim.name, l, width, laneErrs[l])
						continue
					}
					lp := laneTokens(params, l)
					want, err := ref.Run(ctx, sc.Build(lp), lim.opts)
					if err != nil {
						t.Fatalf("seed %d tokens %d %s: lane %d reference: %v", seed, tokens, lim.name, l, err)
					}
					traced := lim.opts
					traced.Record = true
					tr, err := br.Run(ctx, sc.Build(lp), traced)
					if err != nil {
						t.Fatalf("seed %d tokens %d %s: lane %d traced scalar run: %v", seed, tokens, lim.name, l, err)
					}
					check("batch lane", lane, want, tr)
				}
			}
		}
	}
}

// An untraced run reconstructs only its last iteration, but it still
// fills every iteration's row: an out-of-range duration fails every
// engine untraced too.
func TestOutOfRangeDurationFailsEveryEngineUntraced(t *testing.T) {
	ctx := context.Background()
	for _, name := range engine.Names() {
		eng, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := engine.Options{AbstractGroup: []string{"F"}}
		if r, err := eng.Run(ctx, overflowArch(1e19), opts); !errors.Is(err, model.ErrDurationRange) {
			t.Errorf("%s: got %+v, %v, want an error wrapping ErrDurationRange", name, r, err)
		}
		if _, err := eng.Run(ctx, overflowArch(1e9), opts); err != nil {
			t.Errorf("%s on an in-range duration: %v", name, err)
		}
	}
}

// Untraced, only the overflowing lane of a batch fails too; its
// siblings complete with their scalar final times.
func TestOutOfRangeDurationFailsOnlyItsBatchLaneUntraced(t *testing.T) {
	ctx := context.Background()
	br := batchRunner(t)
	ops := []float64{1e3, 1e19, 2e3}
	archs := make([]*model.Architecture, len(ops))
	for l, o := range ops {
		archs[l] = overflowArch(o)
	}
	results, errs, err := br.RunBatch(ctx, archs, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for l, o := range ops {
		if l == 1 {
			if !errors.Is(errs[l], model.ErrDurationRange) {
				t.Errorf("lane 1: got %v, want an error wrapping ErrDurationRange", errs[l])
			}
			continue
		}
		if errs[l] != nil || results[l] == nil {
			t.Errorf("lane %d: %v", l, errs[l])
			continue
		}
		want, err := br.Run(ctx, overflowArch(o), engine.Options{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		if results[l].FinalTimeNs != want.FinalTimeNs {
			t.Errorf("lane %d: final time %d, traced scalar run %d", l, results[l].FinalTimeNs, want.FinalTimeNs)
		}
	}
}
