package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/hybrid"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/workload"
)

// multiSource builds a random architecture with 2–3 sources. Each
// source has its own channel, period, offset and token sizes, and feeds
// a random pipeline of 0–2 stages. One join function reads every
// branch, in a drawn order, with a drawn exec after each read. A random
// tail of 0–2 stages follows the join. All sources emit the same number
// of tokens, which the boundary engine requires. The architecture is a
// pure function of seed; tokens sets only the token count, so the
// variants of one seed share one structural shape.
func multiSource(seed int64, tokens int) *model.Architecture {
	r := rand.New(rand.NewSource(seed))
	a := model.NewArchitecture(fmt.Sprintf("multisource-%d", seed))
	channel := func(name string) *model.Channel {
		kind := model.Rendezvous
		if r.Intn(3) == 0 {
			kind = model.FIFO
		}
		return a.AddChannel(name, kind, 1+r.Intn(3))
	}
	cost := func() model.CostFn { return model.OpsPerByte(float64(50+r.Intn(400)), float64(r.Intn(4))) }
	resource := func(name string) *model.Resource {
		speed := 1e9 + float64(r.Intn(3))*5e8
		if r.Intn(2) == 0 {
			return a.AddProcessor("P"+name, speed)
		}
		return a.AddHardware("H"+name, speed)
	}
	// Only tail stages, in pipeline order and without a trailing exec,
	// may share this processor (see zoo.Random for why).
	shared := a.AddProcessor("Pshared", 1e9)
	stage := func(name string, in *model.Channel, mayShare bool) *model.Channel {
		out := channel("c" + name)
		body := []model.Stmt{model.Read{Ch: in}}
		for e := 0; e <= r.Intn(2); e++ {
			body = append(body, model.Exec{Label: fmt.Sprintf("T%s_%d", name, e), Cost: cost()})
		}
		body = append(body, model.Write{Ch: out})
		trailing := r.Intn(4) == 0
		if trailing {
			body = append(body, model.Exec{Label: "T" + name + "_post", Cost: cost()})
		}
		f := a.AddFunction("F"+name, body...)
		if mayShare && !trailing && r.Intn(3) == 0 {
			a.Map(shared, f)
		} else {
			a.Map(resource(name), f)
		}
		return out
	}

	branches := make([]*model.Channel, 2+r.Intn(2))
	for i := range branches {
		cur := channel(fmt.Sprintf("in%d", i))
		sched := model.Periodic(maxplus.T(300+r.Intn(1500)), maxplus.T(r.Intn(400)))
		sizes := workload.SizeStream(seed*7+int64(i), 16+int64(r.Intn(64)), 32+int64(r.Intn(160)))
		a.AddSource(fmt.Sprintf("S%d", i), cur, sched, func(k int) model.Token {
			return model.Token{Size: sizes(k)}
		}, tokens)
		for s := r.Intn(3); s > 0; s-- {
			cur = stage(fmt.Sprintf("b%d_%d", i, s), cur, false)
		}
		branches[i] = cur
	}
	var body []model.Stmt
	for _, i := range r.Perm(len(branches)) {
		body = append(body, model.Read{Ch: branches[i]})
		if r.Intn(3) != 0 {
			body = append(body, model.Exec{Label: fmt.Sprintf("Tj%d", i), Cost: cost()})
		}
	}
	cur := channel("cjoin")
	body = append(body, model.Write{Ch: cur})
	a.Map(resource("join"), a.AddFunction("J", body...))
	for s := r.Intn(3); s > 0; s-- {
		cur = stage(fmt.Sprintf("t%d", s), cur, true)
	}
	a.AddSink("env", cur)
	return a
}

// The multi-source wall: on multiSource architectures every engine
// reproduces the reference executor — traced without a limit, under
// IterLimit and under a LimitNs cutting the run mid-way, and untraced
// without a limit and under IterLimit — and so does every lane of a
// batched adaptive run of width 2–5, whose lanes carry one input per
// source. An architecture whose derivation fails (an input gated by
// another input's FIFO read: derive.ErrUnsupportedBoundary) fails every
// derived engine, and the batch, with that same error. Hybrid also
// abstracts only the join, a multi-input reception of its own; that
// group may be an unsupported boundary too. Either hybrid run may fail
// with ErrPipelined. No other failure is allowed.
func TestEveryEngineOnMultiSourceArchitectures(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	ctx := context.Background()
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	br := batchRunner(t)
	rng := rand.New(rand.NewSource(3))
	type variant struct {
		name    string
		group   func(a *model.Architecture) []string
		partial bool // abstracts only the join
	}
	var variants []variant
	for _, name := range engine.Names() {
		switch name {
		case "reference":
		case "hybrid":
			variants = append(variants,
				variant{name: name, group: func(a *model.Architecture) []string {
					var all []string
					for _, f := range a.Functions {
						all = append(all, f.Name)
					}
					return all
				}},
				variant{name: name, group: func(*model.Architecture) []string { return []string{"J"} }, partial: true})
		default:
			variants = append(variants, variant{name: name, group: func(*model.Architecture) []string { return nil }})
		}
	}
	rejected := 0
	for _, tokens := range []int{3, 40} {
		for seed := int64(0); seed < int64(seeds); seed++ {
			at := fmt.Sprintf("seed %d tokens %d", seed, tokens)
			_, derr := derive.Derive(multiSource(seed, tokens), derive.Options{})
			if derr != nil {
				if !errors.Is(derr, derive.ErrUnsupportedBoundary) {
					t.Fatalf("%s: derive: %v", at, derr)
				}
				rejected++
			}
			// sameErr checks that a derived engine answered the
			// derivation's error.
			sameErr := func(what string, err error) {
				t.Helper()
				if err == nil || err.Error() != derr.Error() {
					t.Errorf("%s: %s answered %v, want the derivation's error %q", at, what, err, derr)
				}
			}
			full, err := ref.Run(ctx, multiSource(seed, tokens), engine.Options{})
			if err != nil {
				t.Fatalf("%s: reference: %v", at, err)
			}
			for _, lim := range []struct {
				name   string
				opts   engine.Options
				traced bool
			}{
				{"unlimited", engine.Options{Record: true}, true},
				{"half-time", engine.Options{Record: true, LimitNs: full.FinalTimeNs / 2}, true},
				{"half-iterations", engine.Options{Record: true, IterLimit: tokens / 2}, true},
				{"untraced", engine.Options{}, false},
				{"untraced half-iterations", engine.Options{IterLimit: tokens / 2}, false},
			} {
				at := at + " " + lim.name
				want, err := ref.Run(ctx, multiSource(seed, tokens), lim.opts)
				if err != nil {
					t.Fatalf("%s: reference: %v", at, err)
				}
				for _, v := range variants {
					eng, err := engine.Lookup(v.name)
					if err != nil {
						t.Fatal(err)
					}
					a := multiSource(seed, tokens)
					opts := lim.opts
					opts.AbstractGroup = v.group(a)
					what := fmt.Sprintf("%s %v", v.name, opts.AbstractGroup)
					got, err := eng.Run(ctx, a, opts)
					switch {
					case v.partial && errors.Is(err, derive.ErrUnsupportedBoundary),
						v.name == "hybrid" && errors.Is(err, hybrid.ErrPipelined):
						continue
					case derr != nil && !v.partial:
						sameErr(what, err)
						continue
					case err != nil:
						t.Errorf("%s: %s: %v", at, what, err)
						continue
					}
					if lim.traced {
						if err := compareRuns(want, got); err != nil {
							t.Errorf("%s: %s differs from reference: %v", at, what, err)
						}
						continue
					}
					// Untraced: the reference's final time, and the
					// iterations of the engine's own traced run (the
					// reference counts none).
					opts.Record = true
					tr, err := eng.Run(ctx, multiSource(seed, tokens), opts)
					if err != nil {
						t.Fatalf("%s: %s traced: %v", at, what, err)
					}
					if got.FinalTimeNs != want.FinalTimeNs || got.Iterations != tr.Iterations {
						t.Errorf("%s: %s final time %d, iterations %d; reference final time %d, traced iterations %d",
							at, what, got.FinalTimeNs, got.Iterations, want.FinalTimeNs, tr.Iterations)
					}
				}
				width := 2 + rng.Intn(4)
				archs := make([]*model.Architecture, width)
				for l := range archs {
					archs[l] = multiSource(seed, tokens+l)
				}
				lanes, laneErrs, err := br.RunBatch(ctx, archs, lim.opts)
				if derr != nil {
					sameErr(fmt.Sprintf("RunBatch of %d lanes", width), err)
					continue
				}
				if err != nil {
					t.Fatalf("%s: RunBatch of %d lanes: %v", at, width, err)
				}
				for l, lane := range lanes {
					what := fmt.Sprintf("lane %d of %d", l, width)
					if laneErrs[l] != nil {
						t.Errorf("%s: %s: %v", at, what, laneErrs[l])
						continue
					}
					opts := lim.opts
					opts.Record = true
					scalar, err := br.Run(ctx, multiSource(seed, tokens+l), opts)
					if err != nil {
						t.Fatalf("%s: %s scalar run: %v", at, what, err)
					}
					w, err := ref.Run(ctx, multiSource(seed, tokens+l), lim.opts)
					if err != nil {
						t.Fatalf("%s: %s reference: %v", at, what, err)
					}
					if !lim.traced {
						if lane.FinalTimeNs != w.FinalTimeNs || lane.Iterations != scalar.Iterations {
							t.Errorf("%s: %s final time %d, iterations %d; reference final time %d, traced scalar iterations %d",
								at, what, lane.FinalTimeNs, lane.Iterations, w.FinalTimeNs, scalar.Iterations)
						}
						continue
					}
					if err := compareLane(scalar, lane); err != nil {
						t.Errorf("%s: %s differs from its scalar run: %v", at, what, err)
					}
					if err := compareRuns(w, lane); err != nil {
						t.Errorf("%s: %s differs from reference: %v", at, what, err)
					}
				}
			}
		}
	}
	t.Logf("the derivation rejected %d of %d cases as an unsupported boundary", rejected, 2*seeds)
}
