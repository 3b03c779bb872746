package core

import (
	"context"
	"fmt"

	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/observe"
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
// whole. A run with neither a trace nor a limit reconstructs only its
// last iteration (see computed.observed). Every progressEvery iterations
// Compute calls progress (when non-nil) with the iterations done and the
// total, then returns ctx's error if it is cancelled.
func (m *Model) Compute(ctx context.Context, opts Options, progress func(done, total int)) (*Result, error) {
	c, err := newComputed(m.res, opts.Trace, opts.Limit, opts.IterLimit)
	if err != nil {
		return nil, err
	}
	ev := m.res.Program().NewEvaluator()
	defer ev.Release()
	us := make([]maxplus.T, len(m.res.Inputs))
	for k := 0; k < c.n; k++ {
		if k > 0 && k%progressEvery == 0 {
			if progress != nil {
				progress(k, c.n)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := c.schedule(k, us, 1, 0); err != nil {
			return nil, err
		}
		if _, err := ev.Step(us); err != nil {
			return nil, err
		}
		if !c.observed(k) {
			continue
		}
		ev.ValuesInto(c.vals)
		row, err := ev.Row(k)
		if err != nil {
			return nil, err
		}
		if !c.record(k, row) {
			break
		}
	}
	if progress != nil {
		progress(c.whole, c.n)
	}
	return c.result(), nil
}

// computed is the bookkeeping of one kernel-free run, shared by Compute
// and every lane of RunBatch: it draws each iteration's source instants,
// records the computed values and tracks the limit.
type computed struct {
	res   *derive.Result
	trace *observe.Trace
	nodes []derive.Labelled
	vals  []maxplus.T // instants of the iteration being recorded
	row   []maxplus.T // its row, for a batch lane (see RunBatch)
	limit maxplus.T
	n     int       // iterations to compute
	every bool      // record every iteration, not only the last
	end   maxplus.T // latest instant or activity end computed
	whole int       // first iteration with an instant past the limit
}

func newComputed(res *derive.Result, trace *observe.Trace, limit sim.Time, iterLimit int) (*computed, error) {
	n, err := iterations(res)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if iterLimit > 0 && iterLimit < n {
		n = iterLimit
	}
	nodes := res.LabelledNodes(nil, nil)
	c := &computed{
		res:   res,
		trace: trace,
		nodes: nodes,
		vals:  make([]maxplus.T, res.Graph.NodeCount()),
		limit: maxplus.T(sim.Forever),
		n:     n,
		// Without labelled nodes record stops a run after its first
		// iteration, so that one must be recorded too.
		every: trace != nil || limit > 0 || len(nodes) == 0,
		end:   maxplus.Epsilon,
		whole: n,
	}
	if limit > 0 {
		c.limit = maxplus.T(limit)
	}
	return c, nil
}

// observed reports whether iteration k must be recorded. A trace needs
// every iteration, and so does a limit, because record finds the
// iteration that reaches nothing within it. Without either, a run's only
// product is its final time: instants and activity ends never decrease
// with k (every process runs its body in order, so occurrence k+1 of a
// statement starts after occurrence k ends), so the last iteration holds
// the latest end and is the only one recorded.
func (c *computed) observed(k int) bool {
	return c.every || k+1 == c.n
}

// schedule writes the source instants of iteration k into u: input i
// goes to u[i*stride+lane], the layout of a batch of stride lanes.
func (c *computed) schedule(k int, u []maxplus.T, stride, lane int) error {
	for i, ib := range c.res.Inputs {
		v := ib.Source.Schedule(k)
		if v.IsEpsilon() {
			return fmt.Errorf("core: source %q schedule(%d) is ε", ib.Source.Name, k)
		}
		u[i*stride+lane] = v
	}
	return nil
}

// record records iteration k from c.vals and the iteration's row. It
// reports whether any of the iteration's instants is within the limit:
// instants grow with k, so when none is, no later iteration reaches the
// limit either.
func (c *computed) record(k int, row []maxplus.T) bool {
	iterEnd, reached := c.res.Record(c.trace, c.nodes, c.vals, row, k, c.limit)
	c.end = maxplus.Oplus(c.end, iterEnd)
	if iterEnd > c.limit && c.whole == c.n {
		c.whole = k
	}
	return reached
}

// result reports the run: the final time is the latest instant or
// activity end computed, clipped to the limit.
func (c *computed) result() *Result {
	var final sim.Time
	if c.end != maxplus.Epsilon {
		final = sim.Time(min(c.end, c.limit))
	}
	return &Result{Stats: sim.Stats{FinalTime: final}, Trace: c.trace, Iterations: c.whole}
}
