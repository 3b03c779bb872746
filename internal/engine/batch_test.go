package engine_test

import (
	"context"
	"fmt"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/zoo"

	_ "dyncomp/internal/adaptive"
	_ "dyncomp/internal/lte"
)

// laneParams derives the lane'th grid point of a scenario by varying a
// dynamics-only parameter, so every lane shares one structural shape and
// the batch path accepts the whole cohort. The random scenario's
// topology is a function of its seed, so its lanes vary the token count
// instead — which also exercises lanes retiring at different iterations.
func laneParams(scenario string, lane int) zoo.ParamMap {
	p := zoo.ParamMap{}
	for k, v := range testParams {
		p[k] = v
	}
	if scenario == "random" {
		p["tokens"] = testParams["tokens"] + int64(lane*3)
	} else {
		p["seed"] = testParams["seed"] + int64(lane*7+1)
	}
	return p
}

// batchRunner looks up the adaptive engine, the one with a batched form.
func batchRunner(t *testing.T) engine.BatchRunner {
	t.Helper()
	eng, err := engine.Lookup("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	br, ok := eng.(engine.BatchRunner)
	if !ok {
		t.Fatal("adaptive engine does not advertise BatchRunner")
	}
	return br
}

// compareLane checks one batched lane against the scalar run of the
// same architecture: equal instants, activities, final time and
// iteration count.
func compareLane(scalar, lane *engine.Result) error {
	if err := compareRuns(scalar, lane); err != nil {
		return err
	}
	if lane.Iterations != scalar.Iterations {
		return fmt.Errorf("%d iterations, scalar run %d", lane.Iterations, scalar.Iterations)
	}
	return nil
}

// The acceptance property of the batched pipeline: on every registered
// scenario, each lane of a RunBatch is bit-exact against a per-point Run
// of the same architecture and against the reference executor — across
// batch widths including a degenerate single lane and a width that is
// no multiple of anything.
func TestBatchRunBitExactOnEveryScenario(t *testing.T) {
	ctx := context.Background()
	br := batchRunner(t)
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	scenarios := zoo.Scenarios()
	if len(scenarios) < 7 {
		t.Fatalf("scenario registry holds %d scenarios, want at least 7", len(scenarios))
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for _, width := range []int{1, 2, 7, 32} {
				archs := make([]*model.Architecture, width)
				for l := range archs {
					archs[l] = sc.Build(laneParams(sc.Name, l))
				}
				results, laneErrs, err := br.RunBatch(ctx, archs, engine.Options{Record: true})
				if err != nil {
					t.Fatalf("width %d: RunBatch failed wholesale: %v", width, err)
				}
				if len(results) != width || len(laneErrs) != width {
					t.Fatalf("width %d: got %d results / %d errors", width, len(results), len(laneErrs))
				}
				for l := range archs {
					if laneErrs[l] != nil {
						t.Errorf("width %d lane %d: %v", width, l, laneErrs[l])
						continue
					}
					rr, err := br.Run(ctx, sc.Build(laneParams(sc.Name, l)), engine.Options{Record: true})
					if err != nil {
						t.Fatalf("width %d lane %d scalar run: %v", width, l, err)
					}
					if err := compareLane(rr, results[l]); err != nil {
						t.Errorf("width %d lane %d differs from scalar run: %v", width, l, err)
					}
					want, err := ref.Run(ctx, sc.Build(laneParams(sc.Name, l)), engine.Options{Record: true})
					if err != nil {
						t.Fatalf("width %d lane %d reference: %v", width, l, err)
					}
					if err := compareRuns(want, results[l]); err != nil {
						t.Errorf("width %d lane %d differs from reference: %v", width, l, err)
					}
				}
			}
		})
	}
}

// RunBatch honors a pre-cancelled context before touching the
// derivation cache and refuses an empty batch.
func TestBatchRunRejectsCancelledContextAndEmptyBatch(t *testing.T) {
	br := batchRunner(t)
	archs := []*model.Architecture{
		zoo.Didactic(zoo.DidacticSpec{Tokens: 5, Period: 100, Seed: 1}),
		zoo.Didactic(zoo.DidacticSpec{Tokens: 5, Period: 200, Seed: 2}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := br.RunBatch(ctx, archs, engine.Options{}); err == nil {
		t.Fatal("RunBatch ran under a cancelled context")
	}
	if _, _, err := br.RunBatch(context.Background(), nil, engine.Options{}); err == nil {
		t.Fatal("RunBatch accepted an empty batch")
	}
}

// A structurally mixed batch fails wholesale with no per-lane results,
// which is the signal the sweep layer uses to fall back to scalar runs.
func TestBatchRunRejectsMixedShapes(t *testing.T) {
	br := batchRunner(t)
	archs := []*model.Architecture{
		zoo.Didactic(zoo.DidacticSpec{Tokens: 5, Period: 100, Seed: 1}),
		zoo.Pipeline(zoo.PipelineSpec{XSize: 4, Tokens: 5, Seed: 1}),
	}
	if _, _, err := br.RunBatch(context.Background(), archs, engine.Options{}); err == nil {
		t.Fatal("RunBatch accepted a mixed-shape batch")
	}
}

// IterLimit applies per lane inside a batch exactly as it does to a
// scalar run.
func TestBatchRunHonorsIterLimit(t *testing.T) {
	br := batchRunner(t)
	const limit = 9
	archs := make([]*model.Architecture, 4)
	for l := range archs {
		archs[l] = zoo.Didactic(zoo.DidacticSpec{Tokens: 40, Period: 700, Seed: int64(l + 1)})
	}
	results, laneErrs, err := br.RunBatch(context.Background(), archs, engine.Options{Record: true, IterLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	for l := range archs {
		if laneErrs[l] != nil {
			t.Fatalf("lane %d: %v", l, laneErrs[l])
		}
		rr, err := br.Run(context.Background(), archs[l], engine.Options{Record: true, IterLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if err := compareLane(rr, results[l]); err != nil {
			t.Errorf("lane %d differs under IterLimit: %v", l, err)
		}
		if results[l].Iterations != limit {
			t.Errorf("lane %d ran %d iterations under IterLimit %d", l, results[l].Iterations, limit)
		}
	}
}
