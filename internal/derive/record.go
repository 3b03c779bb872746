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
// computed instants vals (indexed by node): the instants of nodes and
// every execution activity, on the local observation time (no simulator
// involvement). Instants and activities past the limit stay unrecorded
// — the reference executor's kernel stops before it reaches them. A nil
// trace records nothing. Record returns the latest instant or activity
// end of the iteration and whether any of its instants is within the
// limit.
func (r *Result) Record(trace *observe.Trace, nodes []Labelled, vals []maxplus.T, k int, limit maxplus.T) (end maxplus.T, reached bool) {
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
	for _, pr := range r.Probes {
		start := pr.Start(vals[pr.Base], k)
		if start == maxplus.Epsilon {
			continue
		}
		load := pr.Exec.Load(k)
		fin := maxplus.Otimes(start, pr.Exec.Resource.DurationOf(load))
		end = maxplus.Oplus(end, fin)
		if trace == nil || start > limit {
			continue
		}
		trace.RecordActivity(observe.Activity{
			Resource: pr.Exec.Resource.Name,
			Label:    pr.Exec.Label,
			K:        k,
			Start:    start,
			End:      fin,
			Ops:      load.Ops,
		})
	}
	return end, reached
}
