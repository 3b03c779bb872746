package derive

import (
	"fmt"

	"dyncomp/internal/model"
)

// RebindBatch instantiates one derivation template against N
// architectures of the same structural shape, yielding one weight-lane
// Result per architecture. Each lane carries its own freshly resolved
// row binding and boundary bindings — the lanes are mutually independent,
// exactly as N individual Rebind calls would be — while all of them
// share the template's graph, row plan, compiled program (through
// Program.Bind) and evaluator pools. That sharing is what makes the
// lanes joinable into one tdg.BatchEvaluator.
//
// An architecture whose shape key differs from the template's fails the
// whole batch: callers group points into shape cohorts before batching.
func RebindBatch(base *Result, archs []*model.Architecture) ([]*Result, error) {
	if len(archs) == 0 {
		return nil, fmt.Errorf("derive: RebindBatch with no architectures")
	}
	out := make([]*Result, len(archs))
	for i, a := range archs {
		r, err := Rebind(base, a)
		if err != nil {
			return nil, fmt.Errorf("derive: batch lane %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// DeriveBatch is the batched form of Cache.Derive: one entry lookup (and
// at most one derivation) serves every lane of the batch. All
// architectures must share one structural shape — a mixed batch is an
// error, not a partial result, so callers can fall back to per-point
// derivation wholesale. The request counts as len(archs) cache requests:
// one miss plus len(archs)-1 hits when the template is fresh, len(archs)
// hits otherwise. A nil cache derives archs[0] privately and rebinds it
// to every lane (RebindBatch).
func (c *Cache) DeriveBatch(archs []*model.Architecture, opts Options) ([]*Result, error) {
	if len(archs) == 0 {
		return nil, fmt.Errorf("derive: DeriveBatch with no architectures")
	}
	if c == nil {
		base, err := Derive(archs[0], opts)
		if err != nil {
			return nil, err
		}
		return RebindBatch(base, archs)
	}
	key, err := ShapeKey(archs[0])
	if err != nil {
		return nil, err
	}
	for i, a := range archs[1:] {
		k, err := ShapeKey(a)
		if err != nil {
			return nil, fmt.Errorf("derive: batch lane %d: %w", i+1, err)
		}
		if k != key {
			return nil, fmt.Errorf("derive: batch lane %d (%q) does not share the structural shape of %q",
				i+1, a.Name, archs[0].Name)
		}
	}
	tmpl, err := c.template(archs[0], key, opts, len(archs))
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(archs))
	for i, a := range archs {
		if out[i], err = rebind(tmpl, a, key); err != nil {
			return nil, fmt.Errorf("derive: batch lane %d: %w", i, err)
		}
	}
	return out, nil
}
