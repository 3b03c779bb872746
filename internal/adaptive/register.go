// Package adaptive registers the "adaptive" engine: the paper's dynamic
// computation method applied to the whole architecture, boundary
// included. Where the equivalent model (internal/core) still runs its
// boundary on the discrete-event kernel — sources, Reception and Emission
// processes — the adaptive engine takes the input instants u(k) straight
// from the source schedules and computes every evolution instant from the
// (max,+) temporal dependency graph, starting at iteration 0 (see
// core.Model.Compute). It pays zero kernel events and zero activations,
// and its trace is bit-exact against the reference executor on any
// parameters: every arc weight of the derived graph is indexed by the
// iteration, so no steady state is needed for the graph to hold. Points
// of one structural shape also run as the lanes of one batch
// (engine.BatchRunner over core.RunBatch), which design-space sweeps use.
package adaptive

import (
	"context"
	"fmt"
	"time"

	"dyncomp/internal/core"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// adEngine adapts kernel-free computation to the uniform engine
// contract. Result.WallNs covers the whole run: graph derivation (or its
// re-binding through the cache) is part of how this engine executes, not
// a separate model-generation step.
type adEngine struct{}

func (adEngine) Name() string { return "adaptive" }

func (adEngine) Run(ctx context.Context, a *model.Architecture, opts engine.Options) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	begin := time.Now()
	dres, err := opts.Cache.Derive(a, opts.Derive)
	if err != nil {
		return nil, err
	}
	m, err := core.New(dres)
	if err != nil {
		return nil, err
	}
	var trace *observe.Trace
	if opts.Record {
		trace = observe.NewTrace(a.Name + "/adaptive")
	}
	res, err := m.Compute(ctx, core.Options{
		Trace:     trace,
		Limit:     sim.Time(opts.LimitNs),
		IterLimit: opts.IterLimit,
	}, opts.Progress)
	if err != nil {
		return nil, err
	}
	return &engine.Result{
		Trace:       trace,
		FinalTimeNs: int64(res.Stats.FinalTime),
		WallNs:      time.Since(begin).Nanoseconds(),
		Iterations:  res.Iterations,
		GraphNodes:  dres.Graph.NodeCountWithDelays(),
	}, nil
}

// RunBatch implements engine.BatchRunner: one derivation re-bound per
// lane and one core.RunBatch compute every architecture, with a single
// batched graph evaluation per iteration. As in Run, WallNs covers the
// derivation too; the batch's wall time is amortized uniformly over the
// lanes, so per-lane WallNs is the marginal cost of a point inside a
// batch — the quantity sweeps sum. Progress is not reported per lane.
func (adEngine) RunBatch(ctx context.Context, archs []*model.Architecture, opts engine.Options) ([]*engine.Result, []error, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if len(archs) == 0 {
		return nil, nil, fmt.Errorf("adaptive: RunBatch with no architectures")
	}
	begin := time.Now()
	lanes, err := opts.Cache.DeriveBatch(archs, opts.Derive)
	if err != nil {
		return nil, nil, err
	}
	var traces []*observe.Trace
	if opts.Record {
		traces = make([]*observe.Trace, len(archs))
		for i, a := range archs {
			traces[i] = observe.NewTrace(a.Name + "/adaptive")
		}
	}
	results, laneErrs, err := core.RunBatchContext(ctx, lanes, core.BatchOptions{
		Traces:    traces,
		Limit:     sim.Time(opts.LimitNs),
		IterLimit: opts.IterLimit,
	})
	if err != nil {
		return nil, nil, err
	}
	perLane := time.Since(begin).Nanoseconds() / int64(len(archs))
	out := make([]*engine.Result, len(archs))
	for l, r := range results {
		if r == nil {
			continue // the lane's failure is in laneErrs[l]
		}
		out[l] = &engine.Result{
			Trace:       r.Trace,
			FinalTimeNs: int64(r.Stats.FinalTime),
			WallNs:      perLane,
			Iterations:  r.Iterations,
			GraphNodes:  lanes[l].Graph.NodeCountWithDelays(),
		}
	}
	return out, laneErrs, nil
}

func init() { engine.Register(adEngine{}) }
