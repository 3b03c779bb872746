package derive

import (
	"slices"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/observe"
	"dyncomp/internal/tdg"
)

// Labelled is a graph node whose instant is part of the observable
// evolution.
type Labelled struct {
	ID    tdg.NodeID
	Label string
}

// LabelledNodes appends to dst the labelled nodes of the derived graph,
// in node order, leaving out the labels in skip (those a runtime
// records itself, e.g. boundary channels).
func (r *Result) LabelledNodes(dst []Labelled, skip []string) []Labelled {
	for _, n := range r.Graph.Nodes() {
		if label, ok := r.Labels[n.ID]; ok && !slices.Contains(skip, label) {
			dst = append(dst, Labelled{ID: n.ID, Label: label})
		}
	}
	return dst
}

// Record reconstructs the observable evolution of iteration k from the
// computed instants vals (indexed by node) and iteration k's row (as
// the result's program filled it): the instants of nodes and every
// execution activity, on the local observation time (no simulator
// involvement). Instants and activities past the limit stay unrecorded
// — the reference executor's kernel stops before it reaches them. A nil
// trace records nothing. Record returns the latest instant or activity
// end of the iteration and whether any of its instants is within the
// limit.
//
// The row holds durations only, so an activity's operation count is
// recomputed from the bound source's token and the column's cost
// function, and only when the activity is recorded. That is exact:
// token functions are deterministic and cost functions pure, so the
// count is the one the duration was converted from.
func (r *Result) Record(trace *observe.Trace, nodes []Labelled, vals, row []maxplus.T, k int, limit maxplus.T) (end maxplus.T, reached bool) {
	end = maxplus.Epsilon
	for _, n := range nodes {
		v := vals[n.ID]
		end = maxplus.Oplus(end, v)
		if v > limit {
			continue
		}
		reached = true
		if trace != nil {
			trace.RecordInstant(n.Label, v)
		}
	}
	p := r.plan
	for i := range p.probes {
		pr := &p.probes[i]
		start := vals[pr.base]
		for _, e := range pr.pre {
			start = maxplus.Otimes(start, row[e])
		}
		if start == maxplus.Epsilon {
			continue
		}
		col := &p.cols[pr.exec]
		fin := maxplus.Otimes(start, row[col.entry])
		end = maxplus.Oplus(end, fin)
		if trace == nil || start > limit {
			continue
		}
		trace.RecordActivity(observe.Activity{
			Resource: col.resource,
			Label:    col.label,
			K:        k,
			Start:    start,
			End:      fin,
			Ops:      col.cost(r.Arch)(r.Arch.Sources[p.srcs[col.src]].TokenAt(k)).Ops,
		})
	}
	return end, reached
}
