package core

import (
	"context"
	"sort"
	"testing"

	"dyncomp/internal/baseline"
	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/zoo"
)

// runBoth executes the reference executor and the equivalent model on the
// same architecture and returns both traces and results.
func runBoth(t *testing.T, a *model.Architecture) (*baseline.Result, *Result) {
	t.Helper()
	bt := observe.NewTrace("baseline")
	bres, err := baseline.Run(a, baseline.Options{Trace: bt})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	dres, err := derive.Derive(a, derive.Options{})
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	m, err := New(dres)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	et := observe.NewTrace("equivalent")
	eres, err := m.Run(Options{Trace: et})
	if err != nil {
		t.Fatalf("equivalent: %v", err)
	}
	return bres, eres
}

// assertExact checks the paper's headline accuracy claim: every evolution
// instant of the equivalent model equals the reference executor's.
func assertExact(t *testing.T, bres *baseline.Result, eres *Result) {
	t.Helper()
	if err := observe.CompareInstants(bres.Trace, eres.Trace); err != nil {
		t.Fatalf("accuracy violated: %v", err)
	}
}

func assertActivitiesEqual(t *testing.T, bres *baseline.Result, eres *Result) {
	t.Helper()
	br, er := bres.Trace, eres.Trace
	resources := br.Resources()
	if len(resources) != len(er.Resources()) {
		t.Fatalf("resource sets differ: %v vs %v", resources, er.Resources())
	}
	key := func(a observe.Activity) observe.Activity { return a }
	for _, r := range resources {
		ba := append([]observe.Activity(nil), br.Activities(r)...)
		ea := append([]observe.Activity(nil), er.Activities(r)...)
		if len(ba) != len(ea) {
			t.Fatalf("%s: %d vs %d activities", r, len(ba), len(ea))
		}
		less := func(s []observe.Activity) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i].Label != s[j].Label {
					return s[i].Label < s[j].Label
				}
				return s[i].K < s[j].K
			}
		}
		sort.Slice(ba, less(ba))
		sort.Slice(ea, less(ea))
		for i := range ba {
			if key(ba[i]) != key(ea[i]) {
				t.Fatalf("%s activity %d differs:\nbaseline:   %+v\nequivalent: %+v", r, i, ba[i], ea[i])
			}
		}
	}
}

// The fundamental reproduction result (Section IV of the paper): the
// equivalent model computes identical evolution instants to the fully
// simulated model, in every source regime.
func TestEquivalentModelIsExactDidactic(t *testing.T) {
	cases := []struct {
		name string
		spec zoo.DidacticSpec
	}{
		{"periodic-slow", zoo.DidacticSpec{Tokens: 500, Period: 2000, Seed: 7}},
		{"periodic-fast", zoo.DidacticSpec{Tokens: 500, Period: 300, Seed: 8}},
		{"eager", zoo.DidacticSpec{Tokens: 500, Period: 0, Seed: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bres, eres := runBoth(t, zoo.Didactic(tc.spec))
			assertExact(t, bres, eres)
			assertActivitiesEqual(t, bres, eres)
		})
	}
}

func TestEquivalentModelIsExactChains(t *testing.T) {
	for _, stages := range []int{2, 3, 4} {
		a := zoo.DidacticChain(stages, zoo.DidacticSpec{Tokens: 200, Period: 1200, Seed: 3})
		bres, eres := runBoth(t, a)
		assertExact(t, bres, eres)
		assertActivitiesEqual(t, bres, eres)
	}
}

func TestEquivalentModelIsExactFIFO(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 300, Period: 400, Seed: 5, UseFIFO: true}
	bres, eres := runBoth(t, zoo.Didactic(spec))
	assertExact(t, bres, eres)
	assertActivitiesEqual(t, bres, eres)
}

func TestEquivalentModelIsExactPipeline(t *testing.T) {
	for _, x := range []int{2, 6, 12} {
		a := zoo.Pipeline(zoo.PipelineSpec{XSize: x, Tokens: 150, Period: 0, Seed: 2})
		bres, eres := runBoth(t, a)
		assertExact(t, bres, eres)
	}
}

// The point of the method: the equivalent model needs far fewer kernel
// events and context switches than the reference executor.
func TestEquivalentModelSavesEvents(t *testing.T) {
	a := zoo.Didactic(zoo.DidacticSpec{Tokens: 1000, Period: 1000, Seed: 1})
	bres, eres := runBoth(t, a)
	ratio := float64(bres.Stats.Activations) / float64(eres.Stats.Activations)
	if ratio < 1.5 {
		t.Fatalf("activation ratio = %.2f (baseline %d, equivalent %d); expected a clear saving",
			ratio, bres.Stats.Activations, eres.Stats.Activations)
	}
	if eres.Iterations != 1000 {
		t.Fatalf("iterations = %d", eres.Iterations)
	}
}

// Event savings must grow with the number of abstracted processes
// (Table I's trend).
func TestEventRatioGrowsWithChainLength(t *testing.T) {
	var prev float64
	for _, stages := range []int{1, 2, 3, 4} {
		a := zoo.DidacticChain(stages, zoo.DidacticSpec{Tokens: 300, Period: 1200, Seed: 3})
		bt := observe.NewTrace("b")
		bres, err := baseline.Run(a, baseline.Options{Trace: bt})
		if err != nil {
			t.Fatal(err)
		}
		dres, err := derive.Derive(a, derive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(dres)
		if err != nil {
			t.Fatal(err)
		}
		eres, err := m.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(bres.Stats.Activations) / float64(eres.Stats.Activations)
		if ratio <= prev {
			t.Fatalf("stages=%d: ratio %.2f did not grow (prev %.2f)", stages, ratio, prev)
		}
		prev = ratio
	}
}

// Without a trace the equivalent model must still count iterations and
// produce outputs (benchmark configuration).
func TestEquivalentModelNoTrace(t *testing.T) {
	dres, err := derive.Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 100, Period: 500, Seed: 1}), derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(dres)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 100 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	if res.Trace != nil {
		t.Fatal("unexpected trace")
	}
}

// Padding the graph must not change any instant (only the compute cost).
func TestPaddedGraphStillExact(t *testing.T) {
	a := zoo.Didactic(zoo.DidacticSpec{Tokens: 200, Period: 800, Seed: 4})
	bt := observe.NewTrace("b")
	if _, err := baseline.Run(a, baseline.Options{Trace: bt}); err != nil {
		t.Fatal(err)
	}
	dres, err := derive.Derive(a, derive.Options{PadNodes: 200})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(dres)
	if err != nil {
		t.Fatal(err)
	}
	et := observe.NewTrace("e")
	if _, err := m.Run(Options{Trace: et}); err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(bt, et); err != nil {
		t.Fatalf("padding broke accuracy: %v", err)
	}
}

func TestNewRejectsMismatchedSourceCounts(t *testing.T) {
	a := model.NewArchitecture("two-sources")
	i1 := a.AddChannel("I1", model.Rendezvous, 0)
	i2 := a.AddChannel("I2", model.Rendezvous, 0)
	o1 := a.AddChannel("O1", model.Rendezvous, 0)
	o2 := a.AddChannel("O2", model.Rendezvous, 0)
	cost := model.FixedOps(100)
	f1 := a.AddFunction("G1", model.Read{Ch: i1}, model.Exec{Label: "T1", Cost: cost}, model.Write{Ch: o1})
	f2 := a.AddFunction("G2", model.Read{Ch: i2}, model.Exec{Label: "T2", Cost: cost}, model.Write{Ch: o2})
	a.Map(a.AddProcessor("PA", 1e9), f1)
	a.Map(a.AddProcessor("PB", 1e9), f2)
	tok := func(int) model.Token { return model.Token{Size: 4} }
	a.AddSource("S1", i1, model.Periodic(100, 0), tok, 10)
	a.AddSource("S2", i2, model.Periodic(100, 0), tok, 20)
	a.AddSink("K1", o1)
	a.AddSink("K2", o2)
	dres, err := derive.Derive(a, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dres); err == nil {
		t.Fatal("expected error for mismatched source counts")
	}
}

// joinArch is a two-source architecture: J reads both inputs and joins
// them into one output. Ta processes S1's tokens and Tb S2's, whose
// size streams differ, so a duration computed from the wrong source
// shows. The periods, the second source's offset and the token count
// are dynamics only; every variant shares one shape.
func joinArch(p1, p2 maxplus.T, count int) *model.Architecture {
	a := model.NewArchitecture("join")
	i1 := a.AddChannel("I1", model.Rendezvous, 0)
	i2 := a.AddChannel("I2", model.Rendezvous, 0)
	out := a.AddChannel("O", model.Rendezvous, 0)
	cost := model.OpsPerByte(50, 1)
	j := a.AddFunction("J",
		model.Read{Ch: i1},
		model.Exec{Label: "Ta", Cost: cost},
		model.Read{Ch: i2},
		model.Exec{Label: "Tb", Cost: cost},
		model.Write{Ch: out},
	)
	a.Map(a.AddProcessor("P", 1e9), j)
	tok1 := func(k int) model.Token { return model.Token{Size: int64(16 + k%5)} }
	tok2 := func(k int) model.Token { return model.Token{Size: int64(200 + 37*(k%7))} }
	a.AddSource("S1", i1, model.Periodic(p1, 0), tok1, count)
	a.AddSource("S2", i2, model.Periodic(p2, 30), tok2, count)
	a.AddSink("K", out)
	return a
}

// A two-source architecture with equal counts must run and stay exact.
func TestEquivalentModelTwoInputs(t *testing.T) {
	bres, eres := runBoth(t, joinArch(400, 500, 250))
	assertExact(t, bres, eres)
	assertActivitiesEqual(t, bres, eres)
}

// Each exec statement's row column reads its own source's token: every
// activity (Ops, Start, End) of the two-source join matches the
// reference executor's under Compute and the equivalent model of each
// lane's own derivation, and under a width-3 RunBatch of lane 0's
// derivation rebound to all three.
func TestTwoSourceColumnsMatchReference(t *testing.T) {
	build := func(l int) *model.Architecture {
		return joinArch(maxplus.T(300+60*l), maxplus.T(450-40*l), 40)
	}
	refs := make([]*baseline.Result, 3)
	lanes := make([]*derive.Result, 3)
	for l := range lanes {
		var err error
		if refs[l], err = baseline.Run(build(l), baseline.Options{Trace: observe.NewTrace("reference")}); err != nil {
			t.Fatal(err)
		}
		if lanes[l], err = derive.Derive(build(l), derive.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for l, res := range lanes {
		m, err := New(res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Compute(context.Background(), Options{Trace: observe.NewTrace("compute")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertActivitiesEqual(t, refs[l], got)
		got, err = m.Run(Options{Trace: observe.NewTrace("equivalent")})
		if err != nil {
			t.Fatal(err)
		}
		assertActivitiesEqual(t, refs[l], got)
	}
	archs := []*model.Architecture{build(0), build(1), build(2)}
	batch, err := derive.RebindBatch(lanes[0], archs)
	if err != nil {
		t.Fatal(err)
	}
	traces := []*observe.Trace{observe.NewTrace("b0"), observe.NewTrace("b1"), observe.NewTrace("b2")}
	results, errs, err := RunBatch(batch, BatchOptions{Traces: traces})
	if err != nil {
		t.Fatal(err)
	}
	for l := range batch {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		assertActivitiesEqual(t, refs[l], results[l])
	}
}

// Every lane of a batch over a two-input shape gets its own source
// instants: each lane matches its scalar Compute run — instants,
// final time and iterations — with lanes retiring at different
// iterations, with and without a time limit.
func TestRunBatchTwoInputsMatchesCompute(t *testing.T) {
	build := func(l int) *model.Architecture {
		return joinArch(maxplus.T(300+40*l), maxplus.T(520-30*l), 20+7*l)
	}
	const L = 5
	archs := make([]*model.Architecture, L)
	for l := range archs {
		archs[l] = build(l)
	}
	base, err := derive.Derive(archs[0], derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := derive.RebindBatch(base, archs)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []sim.Time{0, 9000} {
		traces := make([]*observe.Trace, L)
		for l := range traces {
			traces[l] = observe.NewTrace("batch")
		}
		results, errs, err := RunBatch(lanes, BatchOptions{Traces: traces, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		for l := range lanes {
			if errs[l] != nil {
				t.Fatalf("limit %d lane %d: %v", limit, l, errs[l])
			}
			dres, err := derive.Derive(build(l), derive.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(dres)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Compute(context.Background(), Options{Trace: observe.NewTrace("scalar"), Limit: limit}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := results[l]
			if err := observe.CompareInstants(want.Trace, got.Trace); err != nil {
				t.Errorf("limit %d lane %d: %v", limit, l, err)
			}
			if got.Stats != want.Stats || got.Iterations != want.Iterations {
				t.Errorf("limit %d lane %d: %+v / %d iterations, scalar %+v / %d",
					limit, l, got.Stats, got.Iterations, want.Stats, want.Iterations)
			}
		}
	}
}

// A Model must be reusable: repeated Runs simulate from scratch and agree
// bit-exactly (the sweep engine re-runs one derived structure across
// parameter points).
func TestModelRunTwiceIdentical(t *testing.T) {
	dres, err := derive.Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 200, Period: 1100, Seed: 5}), derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(dres)
	if err != nil {
		t.Fatal(err)
	}
	t1 := observe.NewTrace("run1")
	r1, err := m.Run(Options{Trace: t1})
	if err != nil {
		t.Fatal(err)
	}
	t2 := observe.NewTrace("run2")
	r2, err := m.Run(Options{Trace: t2})
	if err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(t1, t2); err != nil {
		t.Fatalf("re-run diverged: %v", err)
	}
	if r1.Stats != r2.Stats || r1.Iterations != r2.Iterations {
		t.Fatalf("re-run stats diverged: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

// A rebound derivation must drive the equivalent model exactly like a
// fresh derivation of the same parameter point.
func TestModelOnReboundDerivation(t *testing.T) {
	template, err := derive.Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 120, Period: 1300, Seed: 1}), derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := zoo.Didactic(zoo.DidacticSpec{Tokens: 80, Period: 800, Seed: 9})
	rres, err := derive.Rebind(template, target)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := New(rres)
	if err != nil {
		t.Fatal(err)
	}
	rt := observe.NewTrace("rebound")
	if _, err := mr.Run(Options{Trace: rt}); err != nil {
		t.Fatal(err)
	}

	dres, err := derive.Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 80, Period: 800, Seed: 9}), derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	md, err := New(dres)
	if err != nil {
		t.Fatal(err)
	}
	dt := observe.NewTrace("direct")
	if _, err := md.Run(Options{Trace: dt}); err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(dt, rt); err != nil {
		t.Fatalf("rebound model diverged from direct derivation: %v", err)
	}
}
