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
// iteration, so no steady state is needed for the graph to hold.
package adaptive

import (
	"context"
	"time"

	"dyncomp/internal/core"
	"dyncomp/internal/derive"
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
	var dres *derive.Result
	var err error
	if opts.Cache != nil {
		dres, err = opts.Cache.Derive(a, opts.Derive)
	} else {
		dres, err = derive.Derive(a, opts.Derive)
	}
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

func init() { engine.Register(adEngine{}) }
