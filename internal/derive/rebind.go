package derive

import (
	"fmt"
	"strconv"

	"dyncomp/internal/model"
)

// ShapeKey returns a canonical fingerprint of everything that determines
// the derived graph's structure: topology, channel protocols and
// capacities, statement sequences, resource kinds and rotations, and the
// names feeding node labels. Dynamics — token streams, source schedules
// and counts, cost functions and resource speeds — are excluded: two
// architectures with equal shape keys derive structurally identical
// graphs and can share one derivation through Rebind or a Cache.
//
// The key is a stable text: the shard ring places shapes by it and a
// cache's snapshot digests it, so its bytes must not change. It is
// appended into one buffer sized up front, because every sweep point
// and cache request builds one.
func ShapeKey(a *model.Architecture) (string, error) {
	if err := a.Validate(); err != nil {
		return "", err
	}
	fns := positionsOf(a.Functions)
	chs := positionsOf(a.Channels)
	ress := positionsOf(a.Resources)

	n := len("arch \n") + len(a.Name)
	for _, ch := range a.Channels {
		n += len("ch  kind= cap= src=false sink=false\n") + len(ch.Name) + 3*keyDigits
	}
	for _, f := range a.Functions {
		n += len("fn  res= rot= body=\n") + len(f.Name) + 3*keyDigits
		for _, st := range f.Body {
			n += len("X;") + keyDigits
			if x, ok := st.(model.Exec); ok {
				n += len(x.Label)
			}
		}
	}
	for _, r := range a.Resources {
		n += len("res  kind= conc= rot=\n") + len(r.Name) + 3*keyDigits + len(r.Rotation)*(keyDigits+1)
	}
	for _, s := range a.Sources {
		n += len("src  ch=\n") + len(s.Name) + 2*keyDigits
	}
	for _, s := range a.Sinks {
		n += len("sink  ch=\n") + len(s.Name) + 2*keyDigits
	}

	b := make([]byte, 0, n)
	b = append(b, "arch "...)
	b = append(b, a.Name...)
	b = append(b, '\n')
	for i, ch := range a.Channels {
		b = append(b, "ch "...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		b = append(b, ch.Name...)
		b = append(b, " kind="...)
		b = strconv.AppendInt(b, int64(ch.Kind), 10)
		b = append(b, " cap="...)
		b = strconv.AppendInt(b, int64(ch.Capacity), 10)
		b = append(b, " src="...)
		b = strconv.AppendBool(b, ch.Source != nil)
		b = append(b, " sink="...)
		b = strconv.AppendBool(b, ch.Sink != nil)
		b = append(b, '\n')
	}
	for i, f := range a.Functions {
		b = append(b, "fn "...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		b = append(b, f.Name...)
		b = append(b, " res="...)
		b = strconv.AppendInt(b, int64(ress.of(f.Resource)), 10)
		b = append(b, " rot="...)
		b = strconv.AppendInt(b, int64(f.RotIndex), 10)
		b = append(b, " body="...)
		for _, st := range f.Body {
			switch s := st.(type) {
			case model.Read:
				b = append(b, 'R')
				b = strconv.AppendInt(b, int64(chs.of(s.Ch)), 10)
			case model.Write:
				b = append(b, 'W')
				b = strconv.AppendInt(b, int64(chs.of(s.Ch)), 10)
			case model.Exec:
				b = append(b, 'X')
				b = append(b, s.Label...)
			}
			b = append(b, ';')
		}
		b = append(b, '\n')
	}
	for i, r := range a.Resources {
		b = append(b, "res "...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		b = append(b, r.Name...)
		b = append(b, " kind="...)
		b = strconv.AppendInt(b, int64(r.Kind), 10)
		b = append(b, " conc="...)
		b = strconv.AppendInt(b, int64(r.Concurrency), 10)
		b = append(b, " rot="...)
		for _, f := range r.Rotation {
			b = strconv.AppendInt(b, int64(fns.of(f)), 10)
			b = append(b, ';')
		}
		b = append(b, '\n')
	}
	for i, s := range a.Sources {
		b = append(b, "src "...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		b = append(b, s.Name...)
		b = append(b, " ch="...)
		b = strconv.AppendInt(b, int64(chs.of(s.Ch)), 10)
		b = append(b, '\n')
	}
	for i, s := range a.Sinks {
		b = append(b, "sink "...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		b = append(b, s.Name...)
		b = append(b, " ch="...)
		b = strconv.AppendInt(b, int64(chs.of(s.Ch)), 10)
		b = append(b, '\n')
	}
	return string(b), nil
}

// keyDigits is the room ShapeKey's size estimate gives each number; a
// longer one only grows the buffer.
const keyDigits = 4

// scanMax is the longest slice positions scans; a longer one is indexed
// by a map, so a key stays linear in the architecture's size.
const scanMax = 32

// positions finds an element's position in a slice. Short slices (every
// zoo model) are scanned, which is cheaper than building a map. Both
// lookups agree everywhere: an element listed twice is at its last
// position, and one not listed at position 0.
type positions[T comparable] struct {
	s []T
	m map[T]int
}

func positionsOf[T comparable](s []T) positions[T] {
	p := positions[T]{s: s}
	if len(s) > scanMax {
		p.m = make(map[T]int, len(s))
		for i, x := range s {
			p.m[x] = i
		}
	}
	return p
}

func (p positions[T]) of(x T) int {
	if p.m != nil {
		return p.m[x]
	}
	for i := len(p.s) - 1; i >= 0; i-- {
		if p.s[i] == x {
			return i
		}
	}
	return 0
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
