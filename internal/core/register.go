package core

import (
	"context"
	"time"

	uni "dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// eqEngine adapts the equivalent model to the uniform engine contract:
// derive (through the injected cache when one is supplied), build, run.
// Derivation happens outside the timed section — the paper's models are
// generated before simulation — so Result.WallNs covers the run only.
type eqEngine struct{}

func (eqEngine) Name() string { return "equivalent" }

func (eqEngine) Run(ctx context.Context, a *model.Architecture, opts uni.Options) (*uni.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dres, err := opts.Cache.Derive(a, opts.Derive)
	if err != nil {
		return nil, err
	}
	m, err := New(dres)
	if err != nil {
		return nil, err
	}
	var trace *observe.Trace
	if opts.Record {
		trace = observe.NewTrace(a.Name + "/equivalent")
	}
	begin := time.Now()
	res, err := m.Run(Options{
		Trace:     trace,
		Limit:     sim.Time(opts.LimitNs),
		IterLimit: opts.IterLimit,
	})
	if err != nil {
		return nil, err
	}
	if opts.Progress != nil {
		opts.Progress(res.Iterations, res.Iterations)
	}
	return &uni.Result{
		Trace:       trace,
		Activations: res.Stats.Activations,
		Events:      res.Stats.Events(),
		FinalTimeNs: int64(res.Stats.FinalTime),
		WallNs:      time.Since(begin).Nanoseconds(),
		Iterations:  res.Iterations,
		GraphNodes:  dres.Graph.NodeCountWithDelays(),
	}, nil
}

func init() { uni.Register(eqEngine{}) }
