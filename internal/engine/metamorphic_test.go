package engine_test

import (
	"context"
	"fmt"
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

// slowed returns a with one service time raised, chosen by pick: an
// even pick adds ops to one exec statement, an odd one slows one
// resource down.
func slowed(a *model.Architecture, pick int) *model.Architecture {
	if pick%2 == 1 {
		r := a.Resources[(pick/2)%len(a.Resources)]
		r.OpsPerSec *= 0.7
		return a
	}
	type site struct{ f, i int }
	var execs []site
	for f, fn := range a.Functions {
		for i, st := range fn.Body {
			if _, ok := st.(model.Exec); ok {
				execs = append(execs, site{f, i})
			}
		}
	}
	s := execs[(pick/2)%len(execs)]
	body := a.Functions[s.f].Body
	ex := body[s.i].(model.Exec)
	cost := ex.Cost
	ex.Cost = func(t model.Token) model.Load {
		l := cost(t)
		l.Ops += 250
		return l
	}
	body[s.i] = ex
	return a
}

// notEarlier reports an instant of slow earlier than the same instant
// of base, or a final time earlier than base's, and whether any instant
// moved later.
func notEarlier(base, slow *engine.Result) (later bool, err error) {
	for _, label := range base.Trace.Labels() {
		b, s := base.Trace.Instants(label), slow.Trace.Instants(label)
		if len(b) != len(s) {
			return false, fmt.Errorf("%s: %d instants, %d before the change", label, len(s), len(b))
		}
		for k := range b {
			if s[k] < b[k] {
				return false, fmt.Errorf("%s(%d) moved earlier: %d, was %d", label, k, s[k], b[k])
			}
			later = later || s[k] > b[k]
		}
	}
	if slow.FinalTimeNs < base.FinalTimeNs {
		return false, fmt.Errorf("final time moved earlier: %d, was %d", slow.FinalTimeNs, base.FinalTimeNs)
	}
	return later, nil
}

// Monotonicity, a metamorphic property of the (max,+) algebra: every
// instant is a max of sums of service times, so raising one service
// time — more ops on one exec statement, or a slower resource — never
// makes any instant earlier. It holds on every engine, hybrid
// abstracting every function, and on every lane of a batched run, each
// against its own unchanged run.
func TestSlowerServiceNeverEarlier(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 12
	}
	ctx := context.Background()
	sc, err := zoo.LookupScenario("random")
	if err != nil {
		t.Fatal(err)
	}
	br := batchRunner(t)
	moved := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		params := zoo.ParamMap{"seed": seed, "tokens": 30}
		for pick := range 2 {
			pick += 2 * int(seed)
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
					t.Errorf("seed %d: %s: %v", seed, name, err)
					continue
				}
				slow, err := eng.Run(ctx, slowed(sc.Build(params), pick), opts)
				if err != nil {
					t.Errorf("seed %d pick %d: %s slowed: %v", seed, pick, name, err)
					continue
				}
				later, err := notEarlier(base, slow)
				if err != nil {
					t.Errorf("seed %d pick %d: %s: %v", seed, pick, name, err)
				}
				if later {
					moved++
				}
			}
			const width = 3
			plain := make([]*model.Architecture, width)
			slower := make([]*model.Architecture, width)
			for l := range plain {
				plain[l] = sc.Build(laneTokens(params, l))
				slower[l] = slowed(sc.Build(laneTokens(params, l)), pick)
			}
			opts := engine.Options{Record: true}
			bases, baseErrs, err := br.RunBatch(ctx, plain, opts)
			if err != nil {
				t.Fatal(err)
			}
			slows, slowErrs, err := br.RunBatch(ctx, slower, opts)
			if err != nil {
				t.Fatal(err)
			}
			for l := range bases {
				if baseErrs[l] != nil || slowErrs[l] != nil {
					t.Errorf("seed %d pick %d: lane %d: %v / %v", seed, pick, l, baseErrs[l], slowErrs[l])
					continue
				}
				if _, err := notEarlier(bases[l], slows[l]); err != nil {
					t.Errorf("seed %d pick %d: batch lane %d: %v", seed, pick, l, err)
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no raised service time moved any instant")
	}
}
