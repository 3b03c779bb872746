package engine_test

import (
	"context"
	"math"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/model"
)

// opsArch is a three-function pipeline whose execution costs have
// fractional coefficients, on resources whose speeds are not powers of
// ten, so an operation count is neither an integer nor a tick count
// times a round factor. Lane l scales the coefficients, keeping the
// shape.
func opsArch(l int) *model.Architecture {
	s := 1 + 0.37*float64(l)
	a := model.NewArchitecture("opcount")
	in := a.AddChannel("In", model.Rendezvous, 0)
	mid := a.AddChannel("Mid", model.FIFO, 2)
	mid2 := a.AddChannel("Mid2", model.Rendezvous, 0)
	out := a.AddChannel("Out", model.Rendezvous, 0)
	f1 := a.AddFunction("F1", model.Read{Ch: in},
		model.Exec{Label: "T1", Cost: model.OpsPerByte(12.75*s, 3.3*s)}, model.Write{Ch: mid})
	f2 := a.AddFunction("F2", model.Read{Ch: mid},
		model.Exec{Label: "T2a", Cost: model.OpsPerByte(0.5*s, 0.125*s)},
		model.Exec{Label: "T2b", Cost: model.FixedOps(7.3 * s)}, model.Write{Ch: mid2})
	f3 := a.AddFunction("F3", model.Read{Ch: mid2},
		model.Exec{Label: "T3", Cost: model.OpsPerByte(1.1*s, 0.7*s)}, model.Write{Ch: out})
	a.Map(a.AddProcessor("P1", 2.7e9), f1, f2)
	a.Map(a.AddHardware("P2", 1.3e8), f3)
	a.AddSource("S", in, model.Periodic(150, 3), func(k int) model.Token {
		return model.Token{Size: int64(100 + 37*(k%5))}
	}, 40+l)
	a.AddSink("K", out)
	return a
}

// The row holds durations only, and Record recomputes each activity's
// operation count from the token and the cost function. On costs with
// fractional coefficients and speeds that are not powers of ten, every
// engine — hybrid on one resource's functions and on all of them — and every lane
// of a batch record the reference executor's activities, operation
// counts included.
func TestRecordedOpCountsMatchReference(t *testing.T) {
	ctx := context.Background()
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(ctx, opsArch(0), engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	fractional := false
	for _, res := range want.Trace.Resources() {
		for _, act := range want.Trace.Activities(res) {
			fractional = fractional || act.Ops != math.Trunc(act.Ops)
		}
	}
	if !fractional {
		t.Fatal("no recorded operation count is fractional")
	}
	runs := map[string]engine.Options{}
	for _, name := range engine.Names() {
		runs[name] = engine.Options{Record: true, AbstractGroup: []string{"F1", "F2"}}
	}
	runs["hybrid whole-group"] = engine.Options{Record: true, AbstractGroup: []string{"F1", "F2", "F3"}}
	for name, opts := range runs {
		eng, err := engine.Lookup(name)
		if name == "hybrid whole-group" {
			eng, err = engine.Lookup("hybrid")
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run(ctx, opsArch(0), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := compareRuns(want, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	archs := []*model.Architecture{opsArch(0), opsArch(1), opsArch(2)}
	results, errs, err := batchRunner(t).RunBatch(ctx, archs, engine.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for l := range archs {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		want, err := ref.Run(ctx, opsArch(l), engine.Options{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := compareRuns(want, results[l]); err != nil {
			t.Errorf("lane %d: %v", l, err)
		}
	}
}
