package dyncomp

import (
	"context"
	"fmt"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/zoo"
)

// run is Run under a background context.
func run(engineName string, a *Architecture, opts EngineOptions) (*EngineResult, error) {
	return Run(context.Background(), engineName, a, opts)
}

// buildSmoke is the quickstart architecture: a three-stage pipeline with
// data-dependent durations.
func buildSmoke(tokens int) *Architecture {
	a := NewArchitecture("smoke")
	in := a.AddChannel("in", Rendezvous, 0)
	mid := a.AddChannel("mid", Rendezvous, 0)
	out := a.AddChannel("out", Rendezvous, 0)
	f1 := a.AddFunction("stage1",
		Read{Ch: in}, Exec{Label: "T1", Cost: OpsPerByte(100, 2)}, Write{Ch: mid})
	f2 := a.AddFunction("stage2",
		Read{Ch: mid}, Exec{Label: "T2", Cost: OpsPerByte(150, 1)}, Write{Ch: out})
	p1 := a.AddProcessor("CPU0", 1e9)
	p2 := a.AddProcessor("CPU1", 1e9)
	a.Map(p1, f1)
	a.Map(p2, f2)
	a.AddSource("gen", in, Periodic(500, 0), func(k int) Token {
		return Token{Size: int64(64 + k%32)}
	}, tokens)
	a.AddSink("env", out)
	return a
}

func TestFacadeEndToEnd(t *testing.T) {
	ref, err := run("reference", buildSmoke(300), EngineOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := run("equivalent", buildSmoke(300), EngineOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareTraces(ref.Trace, eq.Trace); err != nil {
		t.Fatalf("traces differ: %v", err)
	}
	if InstantError(ref.Trace, eq.Trace) != 0 {
		t.Fatal("nonzero instant error")
	}
	if eq.Activations >= ref.Activations {
		t.Fatalf("no event saving: %d vs %d", eq.Activations, ref.Activations)
	}
	if eq.GraphNodes == 0 {
		t.Fatal("graph nodes not reported")
	}
	if ref.FinalTimeNs == 0 || ref.Events == 0 {
		t.Fatalf("stats incomplete: %+v", ref)
	}
}

func TestFacadeTimeLimit(t *testing.T) {
	ref, err := run("reference", buildSmoke(1000), EngineOptions{LimitNs: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if ref.FinalTimeNs != 10_000 {
		t.Fatalf("final time = %d", ref.FinalTimeNs)
	}
	if ref.Trace != nil {
		t.Fatal("trace recorded without Record")
	}
}

func TestFacadeReduce(t *testing.T) {
	full, err := run("equivalent", zoo.Didactic(zoo.DidacticSpec{Tokens: 50, Period: 500, Seed: 1}), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := run("equivalent", zoo.Didactic(zoo.DidacticSpec{Tokens: 50, Period: 500, Seed: 1}), EngineOptions{Reduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if red.GraphNodes > full.GraphNodes {
		t.Fatalf("reduction grew the graph: %d > %d", red.GraphNodes, full.GraphNodes)
	}
}

func TestFacadeHybrid(t *testing.T) {
	ref, err := run("reference", buildSmoke(200), EngineOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := run("hybrid", buildSmoke(200), EngineOptions{Record: true, AbstractGroup: []string{"stage1", "stage2"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareTraces(ref.Trace, hyb.Trace); err != nil {
		t.Fatalf("hybrid traces differ: %v", err)
	}
	if hyb.GraphNodes == 0 {
		t.Fatal("graph nodes not reported")
	}
	if _, err := run("hybrid", buildSmoke(10), EngineOptions{AbstractGroup: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown group member")
	}
}

// TestFacadeAdaptive is the public acceptance criterion of the adaptive
// engine: on the phase-changing workload RunAdaptive produces a
// bit-exact trace against the reference executor while paying at most half the
// kernel events, with both switch directions exercised.
func TestFacadeAdaptive(t *testing.T) {
	build := func() *Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 1200, Period: 1100, Seed: 7})
	}
	ref, err := run("reference", build(), EngineOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := RunAdaptive(build(), AdaptiveOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareTraces(ref.Trace, ad.Trace); err != nil {
		t.Fatalf("adaptive trace differs from reference: %v", err)
	}
	if InstantError(ref.Trace, ad.Trace) != 0 {
		t.Fatal("nonzero instant error")
	}
	if ad.Events > ref.Events/2 {
		t.Fatalf("adaptive paid %d kernel events, want <= half of reference's %d", ad.Events, ref.Events)
	}
	if ad.Switches < 1 || ad.Fallbacks < 1 {
		t.Fatalf("switching not exercised: %d switches, %d fallbacks", ad.Switches, ad.Fallbacks)
	}
	if ad.DetailedIterations+ad.AbstractIterations != 1200 {
		t.Fatalf("iteration split %d + %d != 1200", ad.DetailedIterations, ad.AbstractIterations)
	}
	if len(ad.Phases) < 4 {
		t.Fatalf("expected several phases, got %+v", ad.Phases)
	}
}

// TestSweepAdaptiveDeterministicAcrossWorkers requires per-point adaptive
// results (traces, kernel work, switch counts) to be identical for any
// worker count.
func TestSweepAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	axes := []SweepAxis{
		{Name: "tokens", Values: []int64{300, 600}},
		{Name: "seed", Values: []int64{7, 8, 9}},
	}
	gen := func(p SweepPoint) (*Architecture, error) {
		return zoo.Phased(zoo.PhasedSpec{
			Tokens: int(p.Get("tokens", 300)),
			Period: 1100,
			Seed:   p.Get("seed", 7),
		}), nil
	}
	run := func(workers int) *SweepResult {
		res, err := Sweep(axes, gen, SweepOptions{
			Workers: workers, EngineName: "adaptive", Record: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, many := run(1), run(4)
	for i := range one.Points {
		a, b := one.Points[i], many.Points[i]
		if err := CompareTraces(a.Trace, b.Trace); err != nil {
			t.Fatalf("point %d (%s) differs across worker counts: %v", i, a.Point, err)
		}
		if a.Activations != b.Activations || a.Events != b.Events ||
			a.Switches != b.Switches || a.Fallbacks != b.Fallbacks {
			t.Fatalf("point %d stats differ: %+v vs %+v", i, a, b)
		}
		if a.Switches < 1 {
			t.Fatalf("point %d: adaptive engine never switched", i)
		}
	}
}

func TestFacadeRejectsInvalid(t *testing.T) {
	a := NewArchitecture("broken")
	a.AddChannel("M", Rendezvous, 0)
	if _, err := run("reference", a, EngineOptions{}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := run("equivalent", a, EngineOptions{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestCostHelpers(t *testing.T) {
	if FixedOps(5)(Token{}).Ops != 5 {
		t.Fatal("FixedOps")
	}
	if OpsPerByte(1, 2)(Token{Size: 3}).Ops != 7 {
		t.Fatal("OpsPerByte")
	}
	if Periodic(10, 1)(2) != 21 {
		t.Fatal("Periodic")
	}
	if Eager()(5) != 0 {
		t.Fatal("Eager")
	}
}

// sweepArch parameterizes the smoke architecture for design-space
// sweeps: every parameter is a dynamic (non-structural) knob, so the
// whole grid shares one temporal dependency graph shape.
func sweepArch(tokens, period, size int64) *Architecture {
	a := NewArchitecture("smoke")
	in := a.AddChannel("in", Rendezvous, 0)
	mid := a.AddChannel("mid", Rendezvous, 0)
	out := a.AddChannel("out", Rendezvous, 0)
	f1 := a.AddFunction("stage1",
		Read{Ch: in}, Exec{Label: "T1", Cost: OpsPerByte(100, 2)}, Write{Ch: mid})
	f2 := a.AddFunction("stage2",
		Read{Ch: mid}, Exec{Label: "T2", Cost: OpsPerByte(150, 1)}, Write{Ch: out})
	a.Map(a.AddProcessor("CPU0", 1e9), f1)
	a.Map(a.AddProcessor("CPU1", 1e9), f2)
	a.AddSource("gen", in, Periodic(Time(period), 0), func(k int) Token {
		return Token{Size: size + int64(k%32)}
	}, int(tokens))
	a.AddSink("env", out)
	return a
}

// The sweep acceptance property: a ≥32-point grid produces per-point
// results bit-identical to individual equivalent-engine Run calls while deriving
// the shared structural shape exactly once.
func TestSweepMatchesRunEquivalent(t *testing.T) {
	axes := []SweepAxis{
		{Name: "tokens", Values: []int64{20, 40, 60}},
		{Name: "period", Values: []int64{300, 500}},
		{Name: "size", Values: []int64{32, 64, 96, 128, 160, 192}},
	}
	gen := func(p SweepPoint) (*Architecture, error) {
		return sweepArch(p.Get("tokens", 1), p.Get("period", 500), p.Get("size", 64)), nil
	}
	before := derive.Calls()
	res, err := Sweep(axes, gen, SweepOptions{Workers: 8, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 36 {
		t.Fatalf("grid size %d, want 36", len(res.Points))
	}
	if got := derive.Calls() - before; got != 1 {
		t.Fatalf("Derive ran %d times across the grid, want 1", got)
	}
	if res.Stats.DeriveCalls != 1 || res.Stats.Shapes != 1 || res.Stats.CacheHits != 35 {
		t.Fatalf("cache stats: %+v", res.Stats)
	}
	for i, pr := range res.Points {
		if pr.Err != nil {
			t.Fatalf("point %d: %v", i, pr.Err)
		}
		want, err := run("equivalent", gen2arch(t, gen, pr.Point), EngineOptions{Record: true})
		if err != nil {
			t.Fatalf("point %d: Run: %v", i, err)
		}
		if err := CompareTraces(want.Trace, pr.Trace); err != nil {
			t.Fatalf("point %d (%s) not bit-identical to Run: %v", i, pr.Point, err)
		}
		if want.Activations != pr.Activations || want.Events != pr.Events ||
			want.FinalTimeNs != pr.FinalTimeNs || want.GraphNodes != pr.GraphNodes {
			t.Fatalf("point %d stats differ:\nsweep: %+v\ndirect: %+v", i, pr.RunResult, *want)
		}
	}
}

func gen2arch(t *testing.T, gen SweepGenerator, p SweepPoint) *Architecture {
	t.Helper()
	a, err := gen(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Sweeping with Baseline pairs every point with a reference run and
// aggregates the paper's ratios.
func TestSweepBaselineAggregates(t *testing.T) {
	axes := []SweepAxis{{Name: "tokens", Values: []int64{30, 60}}}
	gen := func(p SweepPoint) (*Architecture, error) {
		return sweepArch(p.Get("tokens", 1), 400, 64), nil
	}
	res, err := Sweep(axes, gen, SweepOptions{Baseline: true, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Points {
		if pr.Baseline == nil {
			t.Fatalf("point %d missing baseline", i)
		}
		if err := CompareTraces(pr.Baseline.Trace, pr.Trace); err != nil {
			t.Fatalf("point %d not exact vs baseline: %v", i, err)
		}
		if pr.EventRatio <= 1 {
			t.Fatalf("point %d event ratio %.2f", i, pr.EventRatio)
		}
	}
	if res.Stats.EventRatio.N != 2 || res.Stats.EventRatio.Geomean <= 1 {
		t.Fatalf("aggregates: %+v", res.Stats.EventRatio)
	}
}

func TestSweepReportsPointErrors(t *testing.T) {
	axes := []SweepAxis{{Name: "tokens", Values: []int64{10, -1}}}
	gen := func(p SweepPoint) (*Architecture, error) {
		tok := p.Get("tokens", 1)
		if tok < 0 {
			return nil, fmt.Errorf("invalid token count %d", tok)
		}
		return sweepArch(tok, 400, 64), nil
	}
	res, err := Sweep(axes, gen, SweepOptions{})
	if err == nil {
		t.Fatal("sweep with a failing point returned nil error")
	}
	if res == nil || res.Stats.Failed != 1 {
		t.Fatalf("result not returned alongside error: %+v", res)
	}
	if res.Points[0].Err != nil || res.Points[1].Err == nil {
		t.Fatalf("wrong point marked failed")
	}
}
