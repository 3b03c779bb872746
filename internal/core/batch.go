package core

import (
	"context"
	"fmt"

	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/tdg"
)

// BatchOptions configures a batched kernel-free run.
type BatchOptions struct {
	// Traces, when non-nil, holds one trace per lane; a nil entry skips
	// recording for that lane.
	Traces []*observe.Trace
	// Limit bounds each lane's simulation time; zero runs to completion.
	Limit sim.Time
	// IterLimit, when positive, bounds every lane to iterations
	// [0, IterLimit).
	IterLimit int
}

// RunBatch computes N re-bound models over one shared
// tdg.BatchEvaluator, with no simulation kernel: per iteration k it
// fills every lane's source instants u(k) into one lane-strided vector,
// takes one batched ComputeInstant step and records each lane as Compute
// records a scalar run — bit-exact against Compute of the same lane. A
// lane that finishes its iterations, or whose iteration reaches nothing
// within the limit, retires from the batch while the others keep
// stepping; so does a lane whose row fails to fill, with its error.
//
// The lanes must be weight-lane siblings of one compiled structure
// (derive.RebindBatch / Cache.DeriveBatch produce exactly that). A
// structural mismatch fails the batch wholesale (third return) so
// callers can fall back to scalar runs; per-lane failures land in the
// error slice while the remaining lanes complete normally. It is
// RunBatchContext with a background context.
func RunBatch(lanes []*derive.Result, opts BatchOptions) ([]*Result, []error, error) {
	return RunBatchContext(context.Background(), lanes, opts)
}

// RunBatchContext is RunBatch with cancellation: every progressEvery
// iterations a cancelled ctx fails every lane still stepping with its
// error.
func RunBatchContext(ctx context.Context, lanes []*derive.Result, opts BatchOptions) ([]*Result, []error, error) {
	L := len(lanes)
	if L == 0 {
		return nil, nil, fmt.Errorf("core: RunBatch with no lanes")
	}
	if opts.Traces != nil && len(opts.Traces) != L {
		return nil, nil, fmt.Errorf("core: %d traces for %d lanes", len(opts.Traces), L)
	}
	progs := make([]*tdg.Program, L)
	runs := make([]*computed, L) // nil once the lane retired
	for l, res := range lanes {
		progs[l] = res.Program()
		var trace *observe.Trace
		if opts.Traces != nil {
			trace = opts.Traces[l]
		}
		c, err := newComputed(res, trace, opts.Limit, opts.IterLimit)
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch lane %d: %w", l, err)
		}
		c.row = make([]maxplus.T, res.RowWidth())
		runs[l] = c
	}
	be, err := tdg.NewBatchEvaluator(progs)
	if err != nil {
		return nil, nil, err
	}
	defer be.Release()

	results := make([]*Result, L)
	errs := make([]error, L)
	retire := func(l int, err error) {
		be.Disable(l)
		if err != nil {
			errs[l] = err
		} else {
			results[l] = runs[l].result()
		}
		runs[l] = nil
	}
	for l, c := range runs {
		if c.n == 0 {
			retire(l, nil)
		}
	}
	u := make([]maxplus.T, len(be.Graph().Inputs())*L)
	for k := 0; be.ActiveLanes() > 0; k++ {
		if k > 0 && k%progressEvery == 0 && ctx.Err() != nil {
			for l, c := range runs {
				if c != nil {
					retire(l, ctx.Err())
				}
			}
			break
		}
		for l, c := range runs {
			if c != nil {
				if err := c.schedule(k, u, L, l); err != nil {
					retire(l, err)
				}
			}
		}
		if be.ActiveLanes() == 0 {
			break
		}
		if _, err := be.Step(u); err != nil {
			return nil, nil, err
		}
		for l, c := range runs {
			if c == nil {
				continue
			}
			if err := be.Err(l); err != nil {
				retire(l, err)
				continue
			}
			if !c.observed(k) {
				continue
			}
			be.LaneValuesInto(l, c.vals)
			be.LaneRowInto(l, c.row)
			if !c.record(k, c.row) || k+1 == c.n {
				retire(l, nil)
			}
		}
	}
	return results, errs, nil
}
