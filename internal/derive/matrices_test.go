package derive

import (
	"testing"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/tdg"
	"dyncomp/internal/zoo"
)

// The matrix recurrence (equations (7)-(10)) must compute exactly the
// same instants as the graph evaluator on the didactic example.
func TestMatrixFormMatchesEvaluatorDidactic(t *testing.T) {
	res := deriveDidactic(t, zoo.DidacticSpec{Tokens: 100, Period: 900, Seed: 3})
	mf, err := NewMatrixForm(res)
	if err != nil {
		t.Fatal(err)
	}
	nx, nu, ny, maxDelay := mf.Dimensions()
	if nx != 6 || nu != 1 || ny != 1 || maxDelay != 1 {
		t.Fatalf("dimensions = %d,%d,%d,%d", nx, nu, ny, maxDelay)
	}
	sys, err := mf.System()
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Program().NewInterpreter()
	for k := 0; k < 100; k++ {
		u := maxplus.Vector{maxplus.T(int64(k) * 900)}
		x, y, err := sys.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		yev, err := ev.Step([]maxplus.T(u))
		if err != nil {
			t.Fatal(err)
		}
		if y[0] != yev[0] {
			t.Fatalf("k=%d: matrix output %v != evaluator %v", k, y[0], yev[0])
		}
		for i, id := range mf.XNodes() {
			if x[i] != ev.Value(id) {
				t.Fatalf("k=%d node %v: matrix %v != evaluator %v", k, id, x[i], ev.Value(id))
			}
		}
	}
}

// The same equality over randomized architectures (including FIFO
// channels, i.e. delays above 1).
func TestMatrixFormMatchesEvaluatorRandom(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		res, err := Derive(zoo.Random(zoo.RandomSpec{Seed: seed, Tokens: 30}), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mf, err := NewMatrixForm(res)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sys, err := mf.System()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ev := res.Program().NewInterpreter()
		nu := len(res.Graph.Inputs())
		for k := 0; k < 30; k++ {
			u := maxplus.NewVector(nu)
			for i := range u {
				u[i] = maxplus.T(int64(k) * 500)
			}
			x, _, err := sys.Step(u)
			if err != nil {
				t.Fatalf("seed %d k=%d: %v", seed, k, err)
			}
			if _, err := ev.Step([]maxplus.T(u)); err != nil {
				t.Fatal(err)
			}
			for i, id := range mf.XNodes() {
				if x[i] != ev.Value(id) {
					t.Fatalf("seed %d k=%d node %v: matrix %v != evaluator %v",
						seed, k, id, x[i], ev.Value(id))
				}
			}
		}
	}
}

// With constant durations, the cycle-mean throughput bound must equal the
// measured steady-state period of the simulated architecture.
func TestThroughputBoundMatchesSimulation(t *testing.T) {
	a := model.NewArchitecture("const")
	in := a.AddChannel("in", model.Rendezvous, 0)
	mid := a.AddChannel("mid", model.Rendezvous, 0)
	out := a.AddChannel("out", model.Rendezvous, 0)
	f1 := a.AddFunction("A",
		model.Read{Ch: in}, model.Exec{Label: "Ta", Cost: model.FixedOps(700)}, model.Write{Ch: mid})
	f2 := a.AddFunction("B",
		model.Read{Ch: mid}, model.Exec{Label: "Tb", Cost: model.FixedOps(400)}, model.Write{Ch: out})
	p := a.AddProcessor("P", 1e9) // both on one processor: period = 700+400
	a.Map(p, f1, f2)
	a.AddSource("S", in, model.Eager(), func(int) model.Token { return model.Token{Size: 1} }, 300)
	a.AddSink("K", out)

	res, err := Derive(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := NewMatrixForm(res)
	if err != nil {
		t.Fatal(err)
	}
	lambda, ok := mf.ThroughputBound(0)
	if !ok {
		t.Fatal("expected a cyclic system")
	}
	if lambda != 1100 {
		t.Fatalf("λ = %v, want 1100 (serialized executions)", lambda)
	}

	// Steady-state inter-output period from the evaluator.
	ev := res.Program().NewInterpreter()
	var prev, last maxplus.T
	for k := 0; k < 300; k++ {
		y, err := ev.Step([]maxplus.T{0})
		if err != nil {
			t.Fatal(err)
		}
		prev, last = last, y[0]
	}
	if period := last - prev; float64(period) != lambda {
		t.Fatalf("measured period %v != λ %v", period, lambda)
	}
}

// The didactic example with constant durations: the critical cycle is the
// P1 rotation (Ti1 + Tj1 + Ti2 around the xM4(k-1) feedback).
func TestThroughputBoundDidacticConstant(t *testing.T) {
	a := model.NewArchitecture("didactic-const")
	chs := map[string]*model.Channel{}
	for _, n := range []string{"M1", "M2", "M3", "M4", "M5", "M6"} {
		chs[n] = a.AddChannel(n, model.Rendezvous, 0)
	}
	cost := func(ops float64) model.CostFn { return model.FixedOps(ops) }
	f1 := a.AddFunction("F1",
		model.Read{Ch: chs["M1"]}, model.Exec{Label: "Ti1", Cost: cost(100)},
		model.Write{Ch: chs["M2"]}, model.Exec{Label: "Tj1", Cost: cost(140)},
		model.Write{Ch: chs["M3"]})
	f2 := a.AddFunction("F2",
		model.Read{Ch: chs["M3"]}, model.Exec{Label: "Ti2", Cost: cost(120)},
		model.Write{Ch: chs["M4"]})
	f3 := a.AddFunction("F3",
		model.Read{Ch: chs["M2"]}, model.Exec{Label: "Ti3", Cost: cost(180)},
		model.Read{Ch: chs["M4"]}, model.Exec{Label: "Tj3", Cost: cost(160)},
		model.Write{Ch: chs["M5"]})
	f4 := a.AddFunction("F4",
		model.Read{Ch: chs["M5"]}, model.Exec{Label: "Ti4", Cost: cost(110)},
		model.Write{Ch: chs["M6"]})
	p1 := a.AddProcessor("P1", 1e9)
	p2 := a.AddHardware("P2", 1e9)
	a.Map(p1, f1, f2)
	a.Map(p2, f3, f4)
	a.AddSource("F0", chs["M1"], model.Eager(), func(int) model.Token { return model.Token{Size: 1} }, 400)
	a.AddSink("env", chs["M6"])

	res, err := Derive(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := NewMatrixForm(res)
	if err != nil {
		t.Fatal(err)
	}
	lambda, ok := mf.ThroughputBound(0)
	if !ok {
		t.Fatal("expected cyclic system")
	}

	ev := res.Program().NewInterpreter()
	var prev, last maxplus.T
	for k := 0; k < 400; k++ {
		y, err := ev.Step([]maxplus.T{0})
		if err != nil {
			t.Fatal(err)
		}
		prev, last = last, y[0]
	}
	if period := float64(last - prev); period != lambda {
		t.Fatalf("measured steady-state period %v != λ %v", period, lambda)
	}
}

func TestMatrixFormRejectsUnfrozen(t *testing.T) {
	g := tdg.New("x")
	res := &Result{Graph: g}
	if _, err := NewMatrixForm(res); err == nil {
		t.Fatal("expected error for unfrozen graph")
	}
}
