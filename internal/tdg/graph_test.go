package tdg

import (
	"math/rand"
	"strings"
	"testing"

	"dyncomp/internal/maxplus"
)

// didacticDurations mirrors the pseudo-random duration streams used across
// the test suites for the paper's didactic example.
func didacticDurations(k int) (ti1, tj1, ti2, ti3, tj3, ti4 maxplus.T) {
	r := rand.New(rand.NewSource(int64(k) + 1000))
	f := func() maxplus.T { return maxplus.T(1 + r.Int63n(50)) }
	return f(), f(), f(), f(), f(), f()
}

// buildDidactic constructs the temporal dependency graph of the paper's
// Fig. 3, implementing equations (1)-(6); its durations are row entries
// 0-5, which didacticRow fills.
func buildDidactic(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	g := New("didactic")
	ids := map[string]NodeID{}
	ids["u"] = g.AddInput("u")
	for _, n := range []string{"xM1", "xM2", "xM3", "xM4", "xM5"} {
		ids[n] = g.AddNode(n, Intermediate)
	}
	ids["xM6"] = g.AddNode("xM6", Output)

	g.AddArc(ids["u"], ids["xM1"], 0, Weight{})
	g.AddArc(ids["xM4"], ids["xM1"], 1, Weight{})
	g.AddArc(ids["xM1"], ids["xM2"], 0, RowWeight(0)) // Ti1
	g.AddArc(ids["xM5"], ids["xM2"], 1, Weight{})
	g.AddArc(ids["xM2"], ids["xM3"], 0, RowWeight(1)) // Tj1
	g.AddArc(ids["xM4"], ids["xM3"], 1, Weight{})
	g.AddArc(ids["xM3"], ids["xM4"], 0, RowWeight(2)) // Ti2
	g.AddArc(ids["xM2"], ids["xM4"], 0, RowWeight(3)) // Ti3
	g.AddArc(ids["xM5"], ids["xM4"], 1, Weight{})
	g.AddArc(ids["xM4"], ids["xM5"], 0, RowWeight(4)) // Tj3
	g.AddArc(ids["xM6"], ids["xM5"], 1, Weight{})
	g.AddArc(ids["xM5"], ids["xM6"], 0, RowWeight(5)) // Ti4
	return g, ids
}

// didacticRow fills iteration k's durations Ti1, Tj1, Ti2, Ti3, Tj3 and
// Ti4 into the row.
type didacticRow struct{}

func (didacticRow) Width() int { return 6 }

func (didacticRow) Fill(k int, row []maxplus.T, stride int) error {
	ti1, tj1, ti2, ti3, tj3, ti4 := didacticDurations(k)
	for i, v := range []maxplus.T{ti1, tj1, ti2, ti3, tj3, ti4} {
		row[i*stride] = v
	}
	return nil
}

// didacticProgram compiles a frozen buildDidactic graph with its
// durations bound.
func didacticProgram(t *testing.T, g *Graph) *Program {
	t.Helper()
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if prog, err = prog.Bind(didacticRow{}); err != nil {
		t.Fatal(err)
	}
	return prog
}

// didacticEvaluator is a compiled evaluator of a frozen buildDidactic
// graph with its durations bound.
func didacticEvaluator(t *testing.T, g *Graph) *Evaluator {
	t.Helper()
	return didacticProgram(t, g).NewEvaluator()
}

// epsilonVector returns n instants, all ε.
func epsilonVector(n int) []maxplus.T {
	v := make([]maxplus.T, n)
	for i := range v {
		v[i] = maxplus.Epsilon
	}
	return v
}

// didacticDirect evaluates equations (1)-(6) literally.
func didacticDirect(n int, u func(k int) maxplus.T) [][]maxplus.T {
	var xs [][]maxplus.T
	prev := epsilonVector(6)
	for k := 0; k < n; k++ {
		ti1, tj1, ti2, ti3, tj3, ti4 := didacticDurations(k)
		x := epsilonVector(6)
		x[0] = maxplus.Oplus(u(k), prev[3])
		x[1] = maxplus.Oplus(maxplus.Otimes(x[0], ti1), prev[4])
		x[2] = maxplus.Oplus(maxplus.Otimes(x[1], tj1), prev[3])
		x[3] = maxplus.OplusN(maxplus.Otimes(x[2], ti2), maxplus.Otimes(x[1], ti3), prev[4])
		x[4] = maxplus.Oplus(maxplus.Otimes(x[3], tj3), prev[5])
		x[5] = maxplus.Otimes(x[4], ti4)
		xs = append(xs, x)
		prev = x
	}
	return xs
}

// TestEvaluatorReproducesDidacticEquations holds both the compiled
// evaluator and the interpreter to equations (1)-(6) evaluated literally.
func TestEvaluatorReproducesDidacticEquations(t *testing.T) {
	g, ids := buildDidactic(t)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	prog := didacticProgram(t, g)
	u := func(k int) maxplus.T { return maxplus.T(int64(k) * 100) }
	want := didacticDirect(300, u)
	names := []string{"xM1", "xM2", "xM3", "xM4", "xM5", "xM6"}
	for _, ev := range []interface {
		Step([]maxplus.T) ([]maxplus.T, error)
		Value(NodeID) maxplus.T
		K() int
	}{prog.NewEvaluator(), prog.NewInterpreter()} {
		for k := 0; k < 300; k++ {
			y, err := ev.Step([]maxplus.T{u(k)})
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range names {
				if got := ev.Value(ids[n]); got != want[k][i] {
					t.Fatalf("%T k=%d %s = %v, want %v", ev, k, n, got, want[k][i])
				}
			}
			if y[0] != want[k][5] {
				t.Fatalf("%T k=%d output = %v, want %v", ev, k, y[0], want[k][5])
			}
		}
		if ev.K() != 300 {
			t.Fatalf("%T K() = %d", ev, ev.K())
		}
	}
}

func TestNodeCounts(t *testing.T) {
	g, _ := buildDidactic(t)
	if got := g.NodeCount(); got != 7 {
		t.Fatalf("NodeCount = %d, want 7", got)
	}
	// The paper counts xM4(k-1), xM5(k-1), xM6(k-1) as three extra nodes,
	// giving the 10 nodes of Table I row 1.
	if got := g.NodeCountWithDelays(); got != 10 {
		t.Fatalf("NodeCountWithDelays = %d, want 10", got)
	}
}

func TestFreezeDetectsZeroDelayCycle(t *testing.T) {
	g := New("cyclic")
	u := g.AddInput("u")
	a := g.AddNode("a", Intermediate)
	b := g.AddNode("b", Output)
	g.AddArc(u, a, 0, Weight{})
	g.AddArc(a, b, 0, ConstWeight(1))
	g.AddArc(b, a, 0, ConstWeight(1))
	err := g.Freeze()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
}

func TestFreezeAllowsDelayedCycle(t *testing.T) {
	g := New("delayed")
	u := g.AddInput("u")
	a := g.AddNode("a", Intermediate)
	y := g.AddNode("y", Output)
	g.AddArc(u, a, 0, Weight{})
	g.AddArc(y, a, 1, ConstWeight(0)) // feedback through a delay
	g.AddArc(a, y, 0, ConstWeight(5))
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	if g.MaxDelay() != 1 {
		t.Fatalf("MaxDelay = %d", g.MaxDelay())
	}
}

func TestFreezeRequiresInputsAndOutputs(t *testing.T) {
	g := New("no-input")
	g.AddNode("y", Output)
	if err := g.Freeze(); err == nil || !strings.Contains(err.Error(), "no input") {
		t.Fatalf("err = %v", err)
	}
	g2 := New("no-output")
	g2.AddInput("u")
	if err := g2.Freeze(); err == nil || !strings.Contains(err.Error(), "no output") {
		t.Fatalf("err = %v", err)
	}
}

func TestPadsDoNotChangeOutputs(t *testing.T) {
	g1, _ := buildDidactic(t)
	g2, ids2 := buildDidactic(t)
	g2.AddPadChain(ids2["xM3"], 50)
	if err := g1.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := g2.Freeze(); err != nil {
		t.Fatal(err)
	}
	if g2.NodeCount() != g1.NodeCount()+50 {
		t.Fatalf("pad count wrong: %d vs %d", g2.NodeCount(), g1.NodeCount())
	}
	e1 := didacticEvaluator(t, g1)
	e2 := didacticEvaluator(t, g2)
	for k := 0; k < 50; k++ {
		u := []maxplus.T{maxplus.T(k * 10)}
		y1, err1 := e1.Step(u)
		y2, err2 := e2.Step(u)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if y1[0] != y2[0] {
			t.Fatalf("k=%d: padded output %v differs from %v", k, y2[0], y1[0])
		}
	}
}

func TestEvaluatorHistoryBeforeOriginIsEpsilon(t *testing.T) {
	// A node depending only on a deep delay stays ε until k reaches it.
	g := New("deep")
	u := g.AddInput("u")
	y := g.AddNode("y", Output)
	g.AddArc(u, y, 3, ConstWeight(7))
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	ev := prog.NewEvaluator()
	for k := 0; k < 6; k++ {
		yv, err := ev.Step([]maxplus.T{maxplus.T(k * 100)})
		if err != nil {
			t.Fatal(err)
		}
		if k < 3 {
			if yv[0] != maxplus.Epsilon {
				t.Fatalf("k=%d: y = %v, want ε", k, yv[0])
			}
		} else {
			want := maxplus.T((k-3)*100 + 7)
			if yv[0] != want {
				t.Fatalf("k=%d: y = %v, want %v", k, yv[0], want)
			}
		}
	}
}

func TestValuesInto(t *testing.T) {
	g, _ := buildDidactic(t)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	ev := didacticEvaluator(t, g)
	if _, err := ev.Step([]maxplus.T{0}); err != nil {
		t.Fatal(err)
	}
	vals := make([]maxplus.T, g.NodeCount())
	ev.ValuesInto(vals)
	if vals[0] != 0 { // input u
		t.Fatalf("vals[0] = %v", vals[0])
	}
	for i, v := range vals {
		if v == maxplus.Epsilon {
			t.Fatalf("node %d still ε after step", i)
		}
	}
}

func TestEvaluatorReset(t *testing.T) {
	g, _ := buildDidactic(t)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	ev := didacticEvaluator(t, g)
	y1, _ := ev.Step([]maxplus.T{0})
	first := y1[0]
	_, _ = ev.Step([]maxplus.T{100})
	ev.Reset()
	if ev.K() != 0 {
		t.Fatal("Reset did not rewind")
	}
	y2, _ := ev.Step([]maxplus.T{0})
	if y2[0] != first {
		t.Fatalf("after Reset y=%v, want %v", y2[0], first)
	}
}

func TestEvaluatorErrors(t *testing.T) {
	g, _ := buildDidactic(t)
	if _, err := Compile(g); err == nil {
		t.Fatal("expected error for unfrozen graph")
	}
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	ev := didacticEvaluator(t, g)
	if _, err := ev.Step([]maxplus.T{1, 2}); err == nil {
		t.Fatal("expected error for wrong input count")
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"arc-into-input", func() {
			g := New("x")
			u := g.AddInput("u")
			a := g.AddNode("a", Output)
			g.AddArc(a, u, 0, Weight{})
		}},
		{"negative-delay", func() {
			g := New("x")
			u := g.AddInput("u")
			a := g.AddNode("a", Output)
			g.AddArc(u, a, -1, Weight{})
		}},
		{"unknown-node", func() {
			g := New("x")
			u := g.AddInput("u")
			g.AddArc(u, NodeID(99), 0, Weight{})
		}},
		{"add-input-via-addnode", func() {
			g := New("x")
			g.AddNode("u", Input)
		}},
		{"mutate-frozen", func() {
			g := New("x")
			u := g.AddInput("u")
			y := g.AddNode("y", Output)
			g.AddArc(u, y, 0, Weight{})
			if err := g.Freeze(); err != nil {
				panic("unexpected: " + err.Error())
			}
			g.AddNode("z", Intermediate)
		}},
		{"value-before-step", func() {
			g := New("x")
			u := g.AddInput("u")
			y := g.AddNode("y", Output)
			g.AddArc(u, y, 0, Weight{})
			_ = g.Freeze()
			prog, _ := Compile(g)
			prog.NewEvaluator().Value(u)
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestDOT(t *testing.T) {
	g, _ := buildDidactic(t)
	var b strings.Builder
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", "xM1", "xM6", "(k-1)", "invtriangle", "doublecircle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[NodeKind]string{Input: "input", Intermediate: "intermediate", Output: "output", Pad: "pad"} {
		if k.String() != want {
			t.Fatalf("%v.String() = %q", int(k), k.String())
		}
	}
	if !strings.Contains(NodeKind(9).String(), "9") {
		t.Fatal("unknown kind string")
	}
}

// Property: evaluation is monotone in the inputs (causality), checked on
// the didactic graph with random input streams.
func TestEvaluatorMonotoneInInputs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g1, _ := buildDidactic(t)
		g2, _ := buildDidactic(t)
		if err := g1.Freeze(); err != nil {
			t.Fatal(err)
		}
		if err := g2.Freeze(); err != nil {
			t.Fatal(err)
		}
		e1 := didacticEvaluator(t, g1)
		e2 := didacticEvaluator(t, g2)
		var base maxplus.T
		for k := 0; k < 30; k++ {
			base += maxplus.T(r.Int63n(100))
			shift := maxplus.T(r.Int63n(40))
			y1, _ := e1.Step([]maxplus.T{base})
			y2, _ := e2.Step([]maxplus.T{base + shift})
			if y2[0] < y1[0] {
				t.Fatalf("later input produced earlier output at k=%d", k)
			}
		}
	}
}
