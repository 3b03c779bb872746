package core

import (
	"context"
	"fmt"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/sim"
)

// progressEvery is the number of iterations Compute evaluates between
// two progress notifications and cancellation checks.
const progressEvery = 64

// Compute evaluates the model's evolution directly over the compiled
// temporal dependency graph, with no simulation kernel: iteration k
// takes the source instants u(k) = Schedule(k), runs one ComputeInstant
// step from the ε history the equivalent model also starts from, and
// reconstructs the iteration's instants and activities from the computed
// values. The graph holds for any parameters, because every arc weight
// is indexed by k, so the result is bit-exact against the reference
// executor at zero kernel events: Result.Stats counts no activation and
// no event, only FinalTime.
//
// Under opts.Limit the instants up to the limit are recorded, as in the
// reference executor: iterations are computed until one reaches nothing
// within the limit, and Result.Iterations counts the iterations recorded
// whole. Every progressEvery iterations Compute calls progress (when
// non-nil) with the iterations done and the total, then returns ctx's
// error if it is cancelled.
func (m *Model) Compute(ctx context.Context, opts Options, progress func(done, total int)) (*Result, error) {
	n, err := m.iterations()
	if err != nil {
		return nil, err
	}
	if opts.IterLimit > 0 && opts.IterLimit < n {
		n = opts.IterLimit
	}
	limit := maxplus.T(sim.Forever)
	if opts.Limit > 0 {
		limit = maxplus.T(opts.Limit)
	}
	res := m.res
	ev := res.Program().NewEvaluator()
	defer ev.Release()
	nodes := labelledNodes(nil, res, nil)
	vals := make([]maxplus.T, res.Graph.NodeCount())
	us := make([]maxplus.T, len(res.Inputs))

	end := maxplus.Epsilon // latest instant or activity end computed
	whole := n             // first iteration with an instant past the limit
	for k := 0; k < n; k++ {
		if k > 0 && k%progressEvery == 0 {
			if progress != nil {
				progress(k, n)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for i, ib := range res.Inputs {
			us[i] = ib.Source.Schedule(k)
			if us[i].IsEpsilon() {
				return nil, fmt.Errorf("core: source %q schedule(%d) is ε", ib.Source.Name, k)
			}
		}
		if _, err := ev.Step(us); err != nil {
			return nil, err
		}
		ev.ValuesInto(vals)
		iterEnd, reached := record(opts.Trace, res, nodes, vals, k, limit)
		end = maxplus.Oplus(end, iterEnd)
		if iterEnd > limit && whole == n {
			whole = k
		}
		if !reached {
			break // instants grow with k: no later iteration reaches the limit
		}
	}
	if progress != nil {
		progress(whole, n)
	}
	var final sim.Time
	if end != maxplus.Epsilon {
		final = sim.Time(min(end, limit))
	}
	return &Result{Stats: sim.Stats{FinalTime: final}, Trace: opts.Trace, Iterations: whole}, nil
}
