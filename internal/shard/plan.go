package shard

import (
	"context"

	"dyncomp/internal/serve"
	"dyncomp/internal/sweep"
)

// jobPlan is a sweep spec compiled and cut for the fleet. Planning is
// deterministic — same spec, same chunks in the same order — which is
// what lets a restarted coordinator identify recovered chunk results by
// nothing more than their position in the plan.
type jobPlan struct {
	plan   *serve.SweepPlan
	chunks []sweep.Chunk      // routed on the ring by their Shape
	failed []serve.ChunkPoint // points that fail before any worker sees them
	shapes int                // distinct structural shapes across the grid
}

// planJob validates the spec through the exact path a worker will use
// (serve.CompileSweep), expands the grid and cuts it with sweep.Plan —
// the planner a single-process batched sweep uses — at chunkPoints
// points per chunk. Plan rounds the cuts to whole batches, so the
// worker-side batching of the fleet's chunks produces the same batch
// count, occupancy and lane layout as a single-process sweep. Points
// whose generation or shape derivation fails are taken out of the plan
// and failed up front with the error the sweep attaches.
func planJob(spec serve.SweepRequest, d serve.SweepDefaults, chunkPoints int) (*jobPlan, *serve.RequestError) {
	plan, rerr := serve.CompileSweep(spec, d)
	if rerr != nil {
		return nil, rerr
	}
	if plan.Opts.Sample.Enabled() {
		// The surrogate needs the whole grid to choose what to simulate;
		// a shard sees only its chunk. Sampled sweeps stay single-process.
		return nil, &serve.RequestError{Status: 400, Code: serve.CodeInvalidSample,
			Msg: "options.sample_tolerance is not supported on distributed sweeps"}
	}
	pts, err := sweep.Grid(plan.Axes)
	if err != nil {
		// CompileSweep already validated the axes; this is unreachable
		// short of a version skew between the two layers.
		return nil, &serve.RequestError{Status: 400, Code: serve.CodeInvalidAxes, Msg: err.Error()}
	}
	// Planning is never cancelled: the plan must be a pure function of
	// the spec, or a restarted coordinator could cut different chunks.
	chunks, results, failed := sweep.Plan(context.Background(), pts, plan.Gen, plan.Opts, 1, chunkPoints)
	jp := &jobPlan{plan: plan, chunks: chunks}
	for i, f := range failed {
		if f {
			jp.failed = append(jp.failed, serve.ChunkPointOf(results[i]))
		}
	}
	shapes := map[string]bool{}
	for _, c := range chunks {
		shapes[c.Shape] = true
	}
	jp.shapes = len(shapes)
	return jp, nil
}
