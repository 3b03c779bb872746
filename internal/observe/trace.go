// Package observe records and analyses the evolution of architecture
// models: evolution-instant traces, resource activity, utilization and
// computational-complexity series (the "observation time" views of Fig. 2b
// and Fig. 6b/c of the paper).
//
// Both execution engines fill the same Trace structure — the event-driven
// reference simulator during simulation, the equivalent model from its
// dynamically computed instants — so that accuracy can be checked
// bit-exact with CompareInstants.
package observe

import (
	"fmt"
	"sort"

	"dyncomp/internal/maxplus"
)

// Activity is one execution of a statement on a resource: the interval
// [Start, End) during which the resource unit is busy, and the operation
// count it performs (for complexity-per-time observation).
type Activity struct {
	Resource string
	Label    string // execution duration name, e.g. "Ti1"
	K        int    // iteration index
	Start    maxplus.T
	End      maxplus.T
	Ops      float64
}

// Trace is a recorded model evolution: per-label instant sequences
// (indexed by iteration) and per-resource activity lists.
type Trace struct {
	Name       string
	instants   map[string][]maxplus.T
	labels     []string
	activities map[string][]Activity
	resources  []string
}

// NewTrace creates an empty trace.
func NewTrace(name string) *Trace {
	return &Trace{
		Name:       name,
		instants:   make(map[string][]maxplus.T),
		activities: make(map[string][]Activity),
	}
}

// NewInstantTrace creates an empty trace that keeps instants only: its
// RecordActivity is a no-op. Engines use it for the internal history they
// read back when the caller asked for no trace.
func NewInstantTrace(name string) *Trace {
	return &Trace{Name: name, instants: make(map[string][]maxplus.T)}
}

// RecordInstant appends the instant of the next iteration of the given
// label (typically a channel name). Iterations must be recorded in order.
func (t *Trace) RecordInstant(label string, at maxplus.T) {
	if _, ok := t.instants[label]; !ok {
		t.labels = append(t.labels, label)
	}
	t.instants[label] = append(t.instants[label], at)
}

// Instants returns the recorded instants of a label indexed by iteration;
// the caller must not modify the slice.
func (t *Trace) Instants(label string) []maxplus.T { return t.instants[label] }

// Labels returns all instant labels in first-recorded order.
func (t *Trace) Labels() []string { return t.labels }

// RecordActivity appends a resource activity; it is a no-op on a trace
// made by NewInstantTrace.
func (t *Trace) RecordActivity(a Activity) {
	if t.activities == nil {
		return
	}
	if _, ok := t.activities[a.Resource]; !ok {
		t.resources = append(t.resources, a.Resource)
	}
	t.activities[a.Resource] = append(t.activities[a.Resource], a)
}

// Activities returns the activities of a resource in recorded order; the
// caller must not modify the slice.
func (t *Trace) Activities(resource string) []Activity { return t.activities[resource] }

// Resources returns all resources with recorded activity.
func (t *Trace) Resources() []string { return t.resources }

// EndTime returns the latest finite instant or activity end in the trace.
func (t *Trace) EndTime() maxplus.T {
	end := maxplus.Epsilon
	for _, xs := range t.instants {
		for _, x := range xs {
			end = maxplus.Oplus(end, x)
		}
	}
	for _, as := range t.activities {
		for _, a := range as {
			end = maxplus.Oplus(end, a.End)
		}
	}
	return end
}

// InstantDiff describes the first mismatch found by CompareInstants.
type InstantDiff struct {
	Label string
	K     int
	A, B  maxplus.T // maxplus.Epsilon marks "absent"
}

func (d *InstantDiff) Error() string {
	return fmt.Sprintf("observe: instant %s(%d) differs: %v vs %v", d.Label, d.K, d.A, d.B)
}

// CompareInstants checks that two traces hold exactly the same instants
// for every label they share, and that they share the same label set.
// It returns nil when the traces agree — the paper's accuracy criterion
// ("evolution instants of both models ... remain the same").
func CompareInstants(a, b *Trace) error {
	al, bl := append([]string(nil), a.labels...), append([]string(nil), b.labels...)
	sort.Strings(al)
	sort.Strings(bl)
	if len(al) != len(bl) {
		return fmt.Errorf("observe: label sets differ: %v vs %v", al, bl)
	}
	for i := range al {
		if al[i] != bl[i] {
			return fmt.Errorf("observe: label sets differ: %v vs %v", al, bl)
		}
	}
	for _, label := range al {
		xa, xb := a.instants[label], b.instants[label]
		n := len(xa)
		if len(xb) < n {
			n = len(xb)
		}
		for k := 0; k < n; k++ {
			if xa[k] != xb[k] {
				return &InstantDiff{Label: label, K: k, A: xa[k], B: xb[k]}
			}
		}
		if len(xa) != len(xb) {
			k := n
			da, db := maxplus.Epsilon, maxplus.Epsilon
			if k < len(xa) {
				da = xa[k]
			}
			if k < len(xb) {
				db = xb[k]
			}
			return &InstantDiff{Label: label, K: k, A: da, B: db}
		}
	}
	return nil
}

// MeanAbsInstantError returns the mean absolute difference between the
// instants of two traces over shared labels and iterations, in ticks.
// It quantifies the accuracy loss of approximate methods (e.g. the
// loosely-timed comparator); exact methods yield 0.
func MeanAbsInstantError(a, b *Trace) float64 {
	var sum float64
	var n int
	for _, label := range a.labels {
		xa := a.instants[label]
		xb := b.instants[label]
		m := len(xa)
		if len(xb) < m {
			m = len(xb)
		}
		for k := 0; k < m; k++ {
			d := int64(xa[k]) - int64(xb[k])
			if d < 0 {
				d = -d
			}
			sum += float64(d)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
