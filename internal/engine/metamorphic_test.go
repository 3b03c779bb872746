package engine_test

import (
	"context"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// shiftSources delays every source of a by delta: token k is offered at
// u(k)+delta.
func shiftSources(a *model.Architecture, delta maxplus.T) *model.Architecture {
	for _, s := range a.Sources {
		u := s.Schedule
		s.Schedule = func(k int) maxplus.T { return maxplus.Otimes(u(k), delta) }
	}
	return a
}

// shifted returns r's trace and final time moved later by delta: the
// run that the same architecture with every source shifted by delta
// must give.
func shifted(r *engine.Result, delta maxplus.T) *engine.Result {
	tr := observe.NewTrace(r.Trace.Name + "+shift")
	for _, label := range r.Trace.Labels() {
		for _, at := range r.Trace.Instants(label) {
			tr.RecordInstant(label, maxplus.Otimes(at, delta))
		}
	}
	for _, res := range r.Trace.Resources() {
		for _, a := range r.Trace.Activities(res) {
			a.Start, a.End = maxplus.Otimes(a.Start, delta), maxplus.Otimes(a.End, delta)
			tr.RecordActivity(a)
		}
	}
	return &engine.Result{Trace: tr, FinalTimeNs: r.FinalTimeNs + int64(delta)}
}

// Time invariance, a metamorphic property of the (max,+) algebra: every
// instant is a max of source instants plus path weights, so shifting
// every source by Δ shifts every instant, every activity and the final
// time by exactly Δ. It holds on every engine — hybrid abstracting every
// function, exact or an error, as on the random wall — and on every lane
// of a batched run, each against its own unshifted run.
func TestSourceShiftShiftsEverything(t *testing.T) {
	const delta = 1234
	seeds := 60
	if testing.Short() {
		seeds = 16
	}
	ctx := context.Background()
	sc, err := zoo.LookupScenario("random")
	if err != nil {
		t.Fatal(err)
	}
	br := batchRunner(t)
	hybridRan := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		params := zoo.ParamMap{"seed": seed, "tokens": 30}
		for _, name := range engine.Names() {
			eng, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := engine.Options{Record: true, AbstractGroup: sc.GroupFor(name, params)}
			if name == "hybrid" && opts.AbstractGroup == nil {
				for _, f := range sc.Build(params).Functions {
					opts.AbstractGroup = append(opts.AbstractGroup, f.Name)
				}
			}
			base, err := eng.Run(ctx, sc.Build(params), opts)
			if err != nil {
				if name != "hybrid" {
					t.Errorf("seed %d: %s: %v", seed, name, err)
				}
				continue
			}
			got, err := eng.Run(ctx, shiftSources(sc.Build(params), delta), opts)
			if err != nil {
				t.Errorf("seed %d: %s shifted: %v", seed, name, err)
				continue
			}
			if name == "hybrid" {
				hybridRan++
			}
			if err := compareRuns(shifted(base, delta), got); err != nil {
				t.Errorf("seed %d: %s shifted by %d ns: %v", seed, name, delta, err)
			}
		}
		if seed%4 != 0 {
			continue
		}
		const width = 3
		plain := make([]*model.Architecture, width)
		moved := make([]*model.Architecture, width)
		for l := range plain {
			plain[l] = sc.Build(laneTokens(params, l))
			moved[l] = shiftSources(sc.Build(laneTokens(params, l)), delta)
		}
		opts := engine.Options{Record: true}
		bases, baseErrs, err := br.RunBatch(ctx, plain, opts)
		if err != nil {
			t.Fatal(err)
		}
		gots, gotErrs, err := br.RunBatch(ctx, moved, opts)
		if err != nil {
			t.Fatal(err)
		}
		for l := range bases {
			if baseErrs[l] != nil || gotErrs[l] != nil {
				t.Errorf("seed %d: lane %d: %v / %v", seed, l, baseErrs[l], gotErrs[l])
				continue
			}
			if err := compareRuns(shifted(bases[l], delta), gots[l]); err != nil {
				t.Errorf("seed %d: batch lane %d shifted by %d ns: %v", seed, l, delta, err)
			}
		}
	}
	if hybridRan == 0 {
		t.Error("hybrid answered an error on every seed")
	}
}
