package engine_test

import (
	"context"
	"errors"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/model"
)

// overflowArch is one function on a 1e9 ops/s processor whose single
// execution costs ops operations, fed three tokens 100 ns apart. At
// 1e19 ops the duration (1e19 ns) does not fit an int64 tick count.
func overflowArch(ops float64) *model.Architecture {
	a := model.NewArchitecture("overflow")
	in := a.AddChannel("In", model.Rendezvous, 0)
	out := a.AddChannel("Out", model.Rendezvous, 0)
	f := a.AddFunction("F",
		model.Read{Ch: in},
		model.Exec{Label: "T", Cost: model.FixedOps(ops)},
		model.Write{Ch: out},
	)
	a.Map(a.AddProcessor("P", 1e9), f)
	a.AddSource("S", in, model.Periodic(100, 0), func(k int) model.Token { return model.Token{Size: 1} }, 3)
	a.AddSink("K", out)
	return a
}

// A duration out of the int64 tick range is an error on every engine,
// never an ε (or saturated) instant: each fails the run with
// model.ErrDurationRange.
func TestOutOfRangeDurationFailsEveryEngine(t *testing.T) {
	ctx := context.Background()
	for _, name := range engine.Names() {
		eng, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := engine.Options{Record: true, AbstractGroup: []string{"F"}}
		r, err := eng.Run(ctx, overflowArch(1e19), opts)
		if !errors.Is(err, model.ErrDurationRange) {
			var got any = err
			if r != nil && r.Trace != nil {
				got = r.Trace.Instants("Out")
			}
			t.Errorf("%s: got %v, want an error wrapping ErrDurationRange", name, got)
		}
		// The same shape one step inside the range runs.
		if _, err := eng.Run(ctx, overflowArch(1e9), opts); err != nil {
			t.Errorf("%s on an in-range duration: %v", name, err)
		}
	}
}

// In a batch only the overflowing lane fails; its siblings complete.
func TestOutOfRangeDurationFailsOnlyItsBatchLane(t *testing.T) {
	br := batchRunner(t)
	archs := []*model.Architecture{overflowArch(1e3), overflowArch(1e19), overflowArch(2e3)}
	results, errs, err := br.RunBatch(context.Background(), archs, engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for l := range archs {
		if l == 1 {
			if !errors.Is(errs[l], model.ErrDurationRange) {
				t.Errorf("lane 1: got %v, want an error wrapping ErrDurationRange", errs[l])
			}
			continue
		}
		if errs[l] != nil || results[l] == nil {
			t.Errorf("lane %d: %v", l, errs[l])
		}
	}
}
