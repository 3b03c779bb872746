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

// hybEngine adapts partial abstraction to the uniform engine contract.
// It is the one engine that requires Options.AbstractGroup: the named
// functions are abstracted into an equivalent model, the rest of the
// architecture runs event-by-event.
type hybEngine struct{}

func (hybEngine) Name() string { return "hybrid" }

func (hybEngine) Run(ctx context.Context, a *model.Architecture, opts uni.Options) (*uni.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(opts.AbstractGroup) == 0 {
		return nil, fmt.Errorf("hybrid: engine needs Options.AbstractGroup (the functions to abstract)")
	}
	var trace *observe.Trace
	if opts.Record {
		trace = observe.NewTrace(a.Name + "/hybrid")
	}
	begin := time.Now()
	res, err := Run(a, Options{
		Group:     opts.AbstractGroup,
		Trace:     trace,
		Limit:     sim.Time(opts.LimitNs),
		IterLimit: opts.IterLimit,
		Derive:    opts.Derive,
		Cache:     opts.Cache,
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
		GraphNodes:  res.GraphNodes,
	}, nil
}

func init() { uni.Register(hybEngine{}) }
