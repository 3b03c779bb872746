package core

import (
	"context"
	"fmt"
	"time"

	"dyncomp/internal/derive"
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

// RunBatch implements uni.BatchRunner: one derivation and one batched
// lockstep simulation serve every lane. Derivation (cached or not)
// happens outside the timed section, as in Run; the measured batch wall
// time is amortized uniformly over the lanes, so per-lane WallNs is the
// marginal cost of a point inside a batch — the quantity sweeps sum.
func (eqEngine) RunBatch(ctx context.Context, archs []*model.Architecture, opts uni.Options) ([]*uni.Result, []error, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if len(archs) == 0 {
		return nil, nil, fmt.Errorf("core: RunBatch with no architectures")
	}
	var lanes []*derive.Result
	var err error
	if opts.Cache != nil {
		lanes, err = opts.Cache.DeriveBatch(archs, opts.Derive)
	} else {
		lanes, err = derive.DeriveBatch(archs, opts.Derive)
	}
	if err != nil {
		return nil, nil, err
	}
	var traces []*observe.Trace
	if opts.Record {
		traces = make([]*observe.Trace, len(archs))
		for i, a := range archs {
			traces[i] = observe.NewTrace(a.Name + "/equivalent")
		}
	}
	begin := time.Now()
	results, laneErrs, err := RunBatch(lanes, BatchOptions{
		Traces:    traces,
		Limit:     sim.Time(opts.LimitNs),
		IterLimit: opts.IterLimit,
	})
	if err != nil {
		return nil, nil, err
	}
	perLane := time.Since(begin).Nanoseconds() / int64(len(archs))
	out := make([]*uni.Result, len(archs))
	for l, r := range results {
		if r == nil {
			continue // the lane's failure is in laneErrs[l]
		}
		out[l] = &uni.Result{
			Trace:       r.Trace,
			Activations: r.Stats.Activations,
			Events:      r.Stats.Events(),
			FinalTimeNs: int64(r.Stats.FinalTime),
			WallNs:      perLane,
			Iterations:  r.Iterations,
			GraphNodes:  lanes[l].Graph.NodeCountWithDelays(),
		}
	}
	return out, laneErrs, nil
}

func init() { uni.Register(eqEngine{}) }
