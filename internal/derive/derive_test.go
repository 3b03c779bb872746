package derive

import (
	"strings"
	"testing"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/tdg"
	"dyncomp/internal/zoo"
)

func deriveDidactic(t *testing.T, spec zoo.DidacticSpec) *Result {
	t.Helper()
	res, err := Derive(zoo.Didactic(spec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The derived graph of the didactic example must match the paper's Fig. 3:
// 7 instant nodes (u, xM1..xM6), 10 nodes counting delayed references,
// and the dependency structure of equations (1)-(6).
func TestDeriveDidacticStructure(t *testing.T) {
	res := deriveDidactic(t, zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1})
	g := res.Graph
	if got := g.NodeCount(); got != 7 {
		t.Fatalf("NodeCount = %d, want 7", got)
	}
	if got := g.NodeCountWithDelays(); got != 10 {
		t.Fatalf("NodeCountWithDelays = %d, want 10 (Table I row 1)", got)
	}

	id := func(name string) tdg.NodeID {
		n, ok := g.NodeByName(name)
		if !ok {
			t.Fatalf("node %q missing", name)
		}
		return n.ID
	}
	type dep struct {
		from  string
		delay int
	}
	wantArcs := map[string][]dep{
		"M1": {{"u:F0", 0}, {"M4", 1}}, // eq (1)
		"M2": {{"M1", 0}, {"M5", 1}},   // eq (2)
		"M3": {{"M2", 0}, {"M4", 1}},   // eq (3)
		"M4": {{"M3", 0}, {"M2", 0}},   // eq (4)
		"M5": {{"M4", 0}, {"M6", 1}},   // eq (5)
		"M6": {{"M5", 0}},              // eq (6)
	}
	for node, want := range wantArcs {
		arcs := g.Incoming(id(node))
		if len(arcs) != len(want) {
			t.Fatalf("%s has %d incoming arcs, want %d", node, len(arcs), len(want))
		}
		for _, w := range want {
			found := false
			for _, a := range arcs {
				if a.From == id(w.from) && a.Delay == w.delay {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s missing arc from %s delay %d", node, w.from, w.delay)
			}
		}
	}
	// M6 is the single output; u:F0 the single input.
	if len(g.Outputs()) != 1 || g.Outputs()[0] != id("M6") {
		t.Fatalf("outputs = %v", g.Outputs())
	}
	if len(g.Inputs()) != 1 || g.Inputs()[0] != id("u:F0") {
		t.Fatalf("inputs = %v", g.Inputs())
	}
}

// Evaluating the derived graph must reproduce the literal equations.
func TestDeriveDidacticEvaluation(t *testing.T) {
	const n = 300
	spec := zoo.DidacticSpec{Tokens: n, Period: 700, Seed: 7}
	res := deriveDidactic(t, spec)
	ev := res.Program().NewEvaluator()
	names := []string{"M1", "M2", "M3", "M4", "M5", "M6"}
	ids := make([]tdg.NodeID, len(names))
	for i, name := range names {
		node, ok := res.Graph.NodeByName(name)
		if !ok {
			t.Fatalf("missing node %s", name)
		}
		ids[i] = node.ID
	}

	prev := [6]maxplus.T{maxplus.Epsilon, maxplus.Epsilon, maxplus.Epsilon, maxplus.Epsilon, maxplus.Epsilon, maxplus.Epsilon}
	for k := 0; k < n; k++ {
		u := maxplus.T(int64(k) * 700)
		if _, err := ev.Step([]maxplus.T{u}); err != nil {
			t.Fatal(err)
		}
		ti1, tj1, ti2, ti3, tj3, ti4 := zoo.DidacticDurations(spec.Seed, k)
		var want [6]maxplus.T
		want[0] = maxplus.Oplus(u, prev[3])
		want[1] = maxplus.Oplus(maxplus.Otimes(want[0], ti1), prev[4])
		want[2] = maxplus.Oplus(maxplus.Otimes(want[1], tj1), prev[3])
		want[3] = maxplus.OplusN(maxplus.Otimes(want[2], ti2), maxplus.Otimes(want[1], ti3), prev[4])
		want[4] = maxplus.Oplus(maxplus.Otimes(want[3], tj3), prev[5])
		want[5] = maxplus.Otimes(want[4], ti4)
		for i := range names {
			if got := ev.Value(ids[i]); got != want[i] {
				t.Fatalf("k=%d %s = %v, want %v", k, names[i], got, want[i])
			}
		}
		prev = want
	}
}

func TestDeriveChainNodeCounts(t *testing.T) {
	// Chained stages share boundary channels, so each extra stage adds
	// 8 nodes in the Table-I counting (the paper's undescribed larger
	// examples add 9; see EXPERIMENTS.md).
	want := map[int]int{1: 10, 2: 18, 3: 26, 4: 34}
	for stages, nodes := range want {
		a := zoo.DidacticChain(stages, zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1})
		res, err := Derive(a, Options{})
		if err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
		if got := res.Graph.NodeCountWithDelays(); got != nodes {
			t.Fatalf("stages=%d: NodeCountWithDelays = %d, want %d", stages, got, nodes)
		}
	}
}

func TestDeriveInputBindingGate(t *testing.T) {
	res := deriveDidactic(t, zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1})
	if len(res.Inputs) != 1 {
		t.Fatalf("inputs = %d", len(res.Inputs))
	}
	ib := res.Inputs[0]
	if ib.Source.Name != "F0" || ib.Channel.Name != "M1" {
		t.Fatalf("binding = %+v", ib)
	}
	// Gate: xM4(k-1) only.
	if len(ib.Gate) != 1 || ib.Gate[0].Delay != 1 {
		t.Fatalf("gate arcs = %+v", ib.Gate)
	}
	from, _ := res.Graph.NodeByName("M4")
	if ib.Gate[0].From != from.ID {
		t.Fatalf("gate from node %d, want M4 (%d)", ib.Gate[0].From, from.ID)
	}
}

func TestDeriveProbes(t *testing.T) {
	res := deriveDidactic(t, zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1})
	probes := res.plan.probes
	if len(probes) != 6 {
		t.Fatalf("%d probes, want 6", len(probes))
	}
	byLabel := map[string]probe{}
	for _, p := range probes {
		byLabel[res.plan.cols[p.exec].label] = p
	}
	// Ti1 starts at xM1 with no prior durations.
	m1, _ := res.Graph.NodeByName("M1")
	if p := byLabel["Ti1"]; p.base != m1.ID || len(p.pre) != 0 {
		t.Fatalf("Ti1 probe = %+v", p)
	}
	// Tj3 starts at xM4 (after the second read of F3).
	m4, _ := res.Graph.NodeByName("M4")
	if p := byLabel["Tj3"]; p.base != m4.ID || len(p.pre) != 0 {
		t.Fatalf("Tj3 probe = %+v", p)
	}
	// Every exec statement is one column of the row.
	if len(res.plan.cols) != 6 || len(res.plan.srcs) != 1 {
		t.Fatalf("%d columns over %d sources, want 6 over 1", len(res.plan.cols), len(res.plan.srcs))
	}
}

func TestDeriveFIFO(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1, UseFIFO: true}
	res := deriveDidactic(t, spec)
	g := res.Graph
	// Two nodes per channel.
	for _, name := range []string{"M1", "M6"} {
		if _, ok := g.NodeByName(name + ".w"); !ok {
			t.Fatalf("missing %s.w", name)
		}
		if _, ok := g.NodeByName(name + ".r"); !ok {
			t.Fatalf("missing %s.r", name)
		}
	}
	// Backpressure arc xr -> xw with delay = capacity.
	w, _ := g.NodeByName("M1.w")
	r, _ := g.NodeByName("M1.r")
	found := false
	for _, a := range g.Incoming(w.ID) {
		if a.From == r.ID && a.Delay == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("missing backpressure arc M1.r -> M1.w with delay 2")
	}
	// Output binding points at the write node of M6.
	m6w, _ := g.NodeByName("M6.w")
	if res.Outputs[0].Node != m6w.ID {
		t.Fatalf("output node = %d, want M6.w", res.Outputs[0].Node)
	}
}

func TestDerivePadNodes(t *testing.T) {
	res, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1}), Options{PadNodes: 25})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Graph.NodeCount(); got != 7+25 {
		t.Fatalf("NodeCount = %d, want 32", got)
	}
}

func TestDeriveRejectsInvalidModel(t *testing.T) {
	a := model.NewArchitecture("broken")
	a.AddChannel("M", model.Rendezvous, 0)
	if _, err := Derive(a, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

// An infeasible static schedule (consumer scheduled before its
// same-iteration producer) must surface as a zero-delay cycle.
func TestDeriveDetectsInfeasibleSchedule(t *testing.T) {
	a := model.NewArchitecture("infeasible")
	in := a.AddChannel("I", model.Rendezvous, 0)
	mid := a.AddChannel("Mid", model.Rendezvous, 0)
	mid2 := a.AddChannel("Mid2", model.Rendezvous, 0)
	out := a.AddChannel("O", model.Rendezvous, 0)
	cost := model.FixedOps(100)
	// fa: I -> Mid, fb: Mid -> Mid2 -> ..., fc consumes Mid2 producing O.
	fa := a.AddFunction("FA", model.Read{Ch: in}, model.Exec{Label: "TA", Cost: cost}, model.Write{Ch: mid})
	fb := a.AddFunction("FB", model.Read{Ch: mid}, model.Exec{Label: "TB", Cost: cost}, model.Write{Ch: mid2})
	fc := a.AddFunction("FC", model.Read{Ch: mid2}, model.Exec{Label: "TC", Cost: cost}, model.Write{Ch: out})
	p := a.AddProcessor("P", 1e9)
	// Schedule FC before FA: FC's gate (end of FB's same-iteration turn)
	// precedes data it needs — infeasible.
	a.Map(p, fc, fa, fb)
	a.AddSource("S", in, model.Eager(), func(int) model.Token { return model.Token{Size: 8} }, 5)
	a.AddSink("K", out)
	_, err := Derive(a, Options{})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want zero-delay cycle", err)
	}
	_ = fa
	_ = fb
}

func TestDeriveLabels(t *testing.T) {
	res := deriveDidactic(t, zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1})
	seen := map[string]bool{}
	for _, l := range res.Labels {
		seen[l] = true
	}
	for _, want := range []string{"M1", "M2", "M3", "M4", "M5", "M6"} {
		if !seen[want] {
			t.Fatalf("label %q missing", want)
		}
	}
	// No aux end nodes in the didactic example (all bodies end in writes).
	for _, l := range res.Labels {
		if strings.HasPrefix(l, "end:") {
			t.Fatalf("unexpected aux end label %q", l)
		}
	}
}

// A function body ending in an Exec gets an auxiliary end node.
func TestDeriveAuxEndNode(t *testing.T) {
	a := model.NewArchitecture("auxend")
	in := a.AddChannel("I", model.Rendezvous, 0)
	out := a.AddChannel("O", model.Rendezvous, 0)
	cost := model.FixedOps(50)
	f1 := a.AddFunction("W", model.Read{Ch: in}, model.Write{Ch: out}, model.Exec{Label: "Tpost", Cost: cost})
	p := a.AddProcessor("P", 1e9)
	a.Map(p, f1)
	a.AddSource("S", in, model.Periodic(100, 0), func(int) model.Token { return model.Token{Size: 8} }, 5)
	a.AddSink("K", out)
	res, err := Derive(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	endNode, ok := res.Graph.NodeByName("end:W")
	if !ok {
		t.Fatal("missing aux end node")
	}
	if got := len(res.Graph.Incoming(endNode.ID)); got != 1 {
		t.Fatalf("aux end has %d arcs, want 1", got)
	}
	// The next turn of W gates on end:W with delay 1 (arc into I's node).
	iNode, _ := res.Graph.NodeByName("I")
	found := false
	for _, arc := range res.Graph.Incoming(iNode.ID) {
		if arc.From == endNode.ID && arc.Delay == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("turn gate through aux end node missing")
	}
}
