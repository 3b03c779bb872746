package derive

import (
	"fmt"
	"strings"

	"dyncomp/internal/model"
)

// ShapeKey returns a canonical fingerprint of everything that determines
// the derived graph's structure: topology, channel protocols and
// capacities, statement sequences, resource kinds and rotations, and the
// names feeding node labels. Dynamics — token streams, source schedules
// and counts, cost functions and resource speeds — are excluded: two
// architectures with equal shape keys derive structurally identical
// graphs and can share one derivation through Rebind or a Cache.
func ShapeKey(a *model.Architecture) (string, error) {
	if err := a.Validate(); err != nil {
		return "", err
	}
	fnIdx := make(map[*model.Function]int, len(a.Functions))
	for i, f := range a.Functions {
		fnIdx[f] = i
	}
	chIdx := make(map[*model.Channel]int, len(a.Channels))
	for i, ch := range a.Channels {
		chIdx[ch] = i
	}
	resIdx := make(map[*model.Resource]int, len(a.Resources))
	for i, r := range a.Resources {
		resIdx[r] = i
	}

	var b strings.Builder
	fmt.Fprintf(&b, "arch %s\n", a.Name)
	for i, ch := range a.Channels {
		fmt.Fprintf(&b, "ch %d %s kind=%d cap=%d src=%t sink=%t\n",
			i, ch.Name, ch.Kind, ch.Capacity, ch.Source != nil, ch.Sink != nil)
	}
	for i, f := range a.Functions {
		fmt.Fprintf(&b, "fn %d %s res=%d rot=%d body=", i, f.Name, resIdx[f.Resource], f.RotIndex)
		for _, st := range f.Body {
			switch s := st.(type) {
			case model.Read:
				fmt.Fprintf(&b, "R%d;", chIdx[s.Ch])
			case model.Write:
				fmt.Fprintf(&b, "W%d;", chIdx[s.Ch])
			case model.Exec:
				fmt.Fprintf(&b, "X%s;", s.Label)
			}
		}
		b.WriteByte('\n')
	}
	for i, r := range a.Resources {
		fmt.Fprintf(&b, "res %d %s kind=%d conc=%d rot=", i, r.Name, r.Kind, r.Concurrency)
		for _, f := range r.Rotation {
			fmt.Fprintf(&b, "%d;", fnIdx[f])
		}
		b.WriteByte('\n')
	}
	for i, s := range a.Sources {
		fmt.Fprintf(&b, "src %d %s ch=%d\n", i, s.Name, chIdx[s.Ch])
	}
	for i, s := range a.Sinks {
		fmt.Fprintf(&b, "sink %d %s ch=%d\n", i, s.Name, chIdx[s.Ch])
	}
	return b.String(), nil
}

// Rebind instantiates an existing derivation against another architecture
// of the same structural shape, without re-deriving: the frozen graph,
// its compiled program and the row plan are shared, and only the plan's
// binding — the new architecture's sources, cost functions and resources
// — and the boundary bindings' sources and sinks are new. The rebound
// result evaluates bit-identically to Derive(a, sameOptions) at a
// fraction of the cost, and carries no mutable state, so one template
// can be rebound concurrently from many goroutines.
func Rebind(base *Result, a *model.Architecture) (*Result, error) {
	key, err := ShapeKey(a) // also validates a
	if err != nil {
		return nil, err
	}
	return rebind(base, a, key)
}

// rebind is Rebind with the target's shape key already computed (and a
// validated): the cache hit path calls it directly so each point builds
// the key exactly once.
func rebind(base *Result, a *model.Architecture, key string) (*Result, error) {
	if base.shapeKey == "" {
		return nil, fmt.Errorf("derive: result for %q carries no rebinding metadata", base.Arch.Name)
	}
	if key != base.shapeKey {
		return nil, fmt.Errorf("derive: architecture %q does not share the structural shape of %q",
			a.Name, base.Arch.Name)
	}
	in := base.plan.bind(a)
	prog, err := base.prog.Bind(in)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Arch:     a,
		Graph:    base.Graph,
		Inputs:   make([]InputBinding, len(base.Inputs)),
		Outputs:  make([]OutputBinding, len(base.Outputs)),
		Labels:   base.Labels,
		shapeKey: key,
		opts:     base.opts,
		plan:     base.plan,
		in:       in,
		prog:     prog,
	}
	// Equal shape keys list the same sources and sinks in the same order.
	for i, ib := range base.Inputs {
		ib.Source, ib.Channel = a.Sources[i], a.Sources[i].Ch
		res.Inputs[i] = ib
	}
	for j, ob := range base.Outputs {
		ob.Sink, ob.Channel = a.Sinks[j], a.Sinks[j].Ch
		res.Outputs[j] = ob
	}
	return res, nil
}
