package hybrid

import (
	"context"
	"fmt"
	"time"

	uni "dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// boundaryEngine adapts the boundary engine to the uniform engine
// contract, under two names. "equivalent" abstracts the whole
// architecture: the paper's equivalent model, derived (through the
// injected cache when one is supplied) outside the timed section, as
// the paper's models are generated before simulation, so Result.WallNs
// covers the run only. "hybrid" abstracts Options.AbstractGroup, which
// it requires, and runs the rest of the architecture event by event;
// deriving the group is part of its run.
type boundaryEngine struct{ whole bool }

func (e boundaryEngine) Name() string {
	if e.whole {
		return "equivalent"
	}
	return "hybrid"
}

func (e boundaryEngine) Run(ctx context.Context, a *model.Architecture, opts uni.Options) (*uni.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !e.whole && len(opts.AbstractGroup) == 0 {
		return nil, fmt.Errorf("hybrid: engine needs Options.AbstractGroup (the functions to abstract)")
	}
	hopts := Options{
		Group:     opts.AbstractGroup,
		Limit:     sim.Time(opts.LimitNs),
		IterLimit: opts.IterLimit,
		Derive:    opts.Derive,
		Cache:     opts.Cache,
	}
	if opts.Record {
		hopts.Trace = observe.NewTrace(a.Name + "/" + e.Name())
	}
	run := func() (*Result, error) { return Run(a, hopts) }
	if e.whole {
		dres, err := opts.Cache.Derive(a, opts.Derive)
		if err != nil {
			return nil, err
		}
		run = func() (*Result, error) { return RunDerived(dres, hopts) }
	}
	begin := time.Now()
	res, err := run()
	if err != nil {
		return nil, err
	}
	if opts.Progress != nil {
		opts.Progress(res.Iterations, res.Iterations)
	}
	return &uni.Result{
		Trace:       hopts.Trace,
		Activations: res.Stats.Activations,
		Events:      res.Stats.Events(),
		FinalTimeNs: int64(res.Stats.FinalTime),
		WallNs:      time.Since(begin).Nanoseconds(),
		Iterations:  res.Iterations,
		GraphNodes:  res.GraphNodes,
	}, nil
}

func init() {
	uni.Register(boundaryEngine{whole: true})
	uni.Register(boundaryEngine{})
}
