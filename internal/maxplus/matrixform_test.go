package maxplus_test

// The matrix form of a derived temporal dependency graph, and the tests
// that hold the compiled graph evaluator to it. Matrix, Vector, System
// and MaxCycleMean are declared in this package's own test files, which
// an external test package sees; derive imports maxplus, so the matrix
// form lives here rather than in derive.

import (
	"fmt"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/tdg"
	"dyncomp/internal/zoo"
)

// MatrixForm is the linear (max,+) representation of a derived temporal
// dependency graph — the paper's equations (7)-(10):
//
//	X(k) = A(k,0)⊗X(k) ⊕ ... ⊕ A(k,a)⊗X(k-a) ⊕ B(k,0)⊗U(k) ⊕ ...
//	Y(k) = C(k,0)⊗X(k)
//
// X collects every non-input node in node-ID order, U the input nodes in
// declaration order, Y the output nodes in declaration order. The matrix
// entries are evaluated per iteration, so data-dependent durations are
// preserved.
type MatrixForm struct {
	res  *derive.Result
	row  []maxplus.T // iteration rowK's row
	rowK int
	// xIndex maps node IDs to X positions; -1 for input nodes.
	xIndex     []int
	xNodes     []tdg.NodeID
	uIndex     []int // node ID -> U position; -1 otherwise
	nx, nu, ny int
	maxDelay   int
}

// NewMatrixForm builds the matrix view of a derivation result.
func NewMatrixForm(res *derive.Result) (*MatrixForm, error) {
	g := res.Graph
	if !g.Frozen() {
		return nil, fmt.Errorf("matrix form: graph %q is not frozen", g.Name)
	}
	m := &MatrixForm{
		res:      res,
		row:      make([]maxplus.T, res.RowWidth()),
		rowK:     -1,
		xIndex:   make([]int, g.NodeCount()),
		uIndex:   make([]int, g.NodeCount()),
		maxDelay: g.MaxDelay(),
	}
	for i := range m.xIndex {
		m.xIndex[i] = -1
		m.uIndex[i] = -1
	}
	for i, id := range g.Inputs() {
		m.uIndex[id] = i
	}
	for _, n := range g.Nodes() {
		if n.Kind == tdg.Input {
			continue
		}
		m.xIndex[n.ID] = m.nx
		m.xNodes = append(m.xNodes, n.ID)
		m.nx++
	}
	m.nu = len(g.Inputs())
	m.ny = len(g.Outputs())
	if m.nx == 0 || m.nu == 0 || m.ny == 0 {
		return nil, fmt.Errorf("matrix form: degenerate matrix form (nx=%d nu=%d ny=%d)", m.nx, m.nu, m.ny)
	}
	return m, nil
}

// Dimensions returns (nx, nu, ny, maxDelay).
func (m *MatrixForm) Dimensions() (nx, nu, ny, maxDelay int) {
	return m.nx, m.nu, m.ny, m.maxDelay
}

// A returns the intermediate dependency matrix A(k, i).
func (m *MatrixForm) A(k, i int) *maxplus.Matrix {
	out := maxplus.NewMatrix(m.nx, m.nx)
	g := m.res.Graph
	for _, n := range g.Nodes() {
		to := m.xIndex[n.ID]
		if to < 0 {
			continue
		}
		for _, a := range g.Incoming(n.ID) {
			from := m.xIndex[a.From]
			if from < 0 || a.Delay != i {
				continue
			}
			out.Set(to, from, maxplus.Oplus(out.At(to, from), m.weightAt(a, k)))
		}
	}
	return out
}

// B returns the input dependency matrix B(k, j).
func (m *MatrixForm) B(k, j int) *maxplus.Matrix {
	out := maxplus.NewMatrix(m.nx, m.nu)
	g := m.res.Graph
	for _, n := range g.Nodes() {
		to := m.xIndex[n.ID]
		if to < 0 {
			continue
		}
		for _, a := range g.Incoming(n.ID) {
			from := m.uIndex[a.From]
			if from < 0 || a.Delay != j {
				continue
			}
			out.Set(to, from, maxplus.Oplus(out.At(to, from), m.weightAt(a, k)))
		}
	}
	return out
}

// C returns the output selection matrix C(k, l); only l = 0 is non-ε
// (outputs are instants of the current iteration).
func (m *MatrixForm) C(_, l int) *maxplus.Matrix {
	out := maxplus.NewMatrix(m.ny, m.nx)
	if l != 0 {
		return out
	}
	for j, id := range m.res.Graph.Outputs() {
		out.Set(j, m.xIndex[id], maxplus.E)
	}
	return out
}

// D returns the direct feedthrough matrix D(k, m): all ε (outputs never
// bypass the intermediate instants in derived graphs).
func (m *MatrixForm) D(_, _ int) *maxplus.Matrix {
	return maxplus.NewMatrix(m.ny, m.nu)
}

// weightAt returns an arc's weight at iteration k. A MatrixForm is an
// analysis view, not an engine: a row that fails to fill (a duration out
// of range) panics.
func (m *MatrixForm) weightAt(a tdg.Arc, k int) maxplus.T {
	if m.rowK != k {
		if err := m.res.FillRow(k, m.row); err != nil {
			panic(fmt.Sprintf("matrix form: matrix form: %v", err))
		}
		m.rowK = k
	}
	return a.Weight.At(m.row)
}

// System instantiates the maxplus recurrence solver over this matrix
// form. Stepping it yields exactly the instants of the graph evaluator.
func (m *MatrixForm) System() (*maxplus.System, error) {
	return maxplus.NewSystem(m.nx, m.nu, m.ny, m.maxDelay, 0, m)
}

// XNodes returns the node IDs backing each X vector position.
func (m *MatrixForm) XNodes() []tdg.NodeID { return m.xNodes }

// ThroughputBound computes the maximum cycle mean λ of the architecture's
// autonomous dynamics using the durations of iteration k: the matrix
// Â = A0* ⊗ A1 propagates X(k-1) to X(k) when the environment is never
// the bottleneck, and λ(Â) is the asymptotic inter-iteration period
// (inverse throughput). For constant durations this is exact steady-state
// analysis (Baccelli et al. 1992); for data-dependent durations it is the
// bound at iteration k. The second result is false when the system is
// acyclic (throughput limited only by the environment).
func (m *MatrixForm) ThroughputBound(k int) (lambda float64, ok bool) {
	a0 := m.A(k, 0)
	ahat := a0.Star().Otimes(m.A(k, 1))
	for i := 2; i <= m.maxDelay; i++ {
		// Higher delays fold conservatively into the one-step matrix by
		// distributing their weight over i steps; exact for the common
		// maxDelay == capacity cases only when capacities are 1, so pull
		// them in at full weight (an upper bound on λ).
		ahat = ahat.Oplus(a0.Star().Otimes(m.A(k, i)))
	}
	return maxplus.MaxCycleMean(ahat)
}

// deriveDidactic derives the didactic scenario of spec.
func deriveDidactic(t *testing.T, spec zoo.DidacticSpec) *derive.Result {
	t.Helper()
	res, err := derive.Derive(zoo.Didactic(spec), derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

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
	ev := res.Program().NewEvaluator()
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
		res, err := derive.Derive(zoo.Random(zoo.RandomSpec{Seed: seed, Tokens: 30}), derive.Options{})
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
		ev := res.Program().NewEvaluator()
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

	res, err := derive.Derive(a, derive.Options{})
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
	ev := res.Program().NewEvaluator()
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

	res, err := derive.Derive(a, derive.Options{})
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

	ev := res.Program().NewEvaluator()
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
	res := &derive.Result{Graph: g}
	if _, err := NewMatrixForm(res); err == nil {
		t.Fatal("expected error for unfrozen graph")
	}
}
