package tdg

import (
	"fmt"
	"math/rand"
	"testing"

	"dyncomp/internal/maxplus"
)

// randomGraph builds a frozen random DAG (on zero-delay arcs) exercising
// every arc flavour the compiler specializes: identity, constant and
// k-varying weights, zero and positive delays, multi-input, pad chains
// (the copy-node fast path) and nodes with no incoming arcs.
func randomGraph(t *testing.T, seed int64) *Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := New(fmt.Sprintf("random%d", seed))
	nIn := 1 + r.Intn(3)
	var ids []NodeID
	for i := 0; i < nIn; i++ {
		ids = append(ids, g.AddInput(fmt.Sprintf("u%d", i)))
	}
	nMid := 4 + r.Intn(12)
	for i := 0; i < nMid; i++ {
		kind := Intermediate
		if i == nMid-1 {
			kind = Output
		}
		id := g.AddNode(fmt.Sprintf("x%d", i), kind)
		// Zero-delay arcs only from earlier nodes: acyclic by construction.
		arcs := 1 + r.Intn(3)
		for a := 0; a < arcs; a++ {
			from := ids[r.Intn(len(ids))]
			delay := 0
			if r.Intn(3) == 0 {
				delay = 1 + r.Intn(3)
			}
			switch r.Intn(3) {
			case 0:
				g.AddArc(from, id, delay, nil)
			case 1:
				g.AddConstArc(from, id, delay, maxplus.T(r.Int63n(500)))
			default:
				mul := maxplus.T(1 + r.Int63n(7))
				g.AddArc(from, id, delay, func(k int) maxplus.T {
					return maxplus.T(int64(k)%97) * mul
				})
			}
		}
		// Occasional delayed self-feedback, as rotation gates produce.
		if r.Intn(4) == 0 {
			g.AddArc(id, id, 1+r.Intn(2), nil)
		}
		ids = append(ids, id)
	}
	g.AddPadChain(ids[len(ids)-1], 3+r.Intn(5))
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	return g
}

func stepInputs(g *Graph, k int) []maxplus.T {
	u := make([]maxplus.T, len(g.Inputs()))
	for i := range u {
		u[i] = maxplus.T(int64(k)*50 + int64(i)*7)
	}
	return u
}

// TestCompiledMatchesInterpreterOnRandomGraphs is the evaluator-level
// bit-exactness property: every instant of every iteration agrees
// between the compiled program and the interpreter, through the warm
// window and deep into steady state.
func TestCompiledMatchesInterpreterOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := randomGraph(t, seed)
		prog, err := Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := NewEvaluator(g)
		if err != nil {
			t.Fatal(err)
		}
		cv := prog.NewEvaluator()
		vi := make([]maxplus.T, g.NodeCount())
		vc := make([]maxplus.T, g.NodeCount())
		for k := 0; k < 40; k++ {
			u := stepInputs(g, k)
			yi, err := iv.Step(u)
			if err != nil {
				t.Fatal(err)
			}
			yc, err := cv.Step(u)
			if err != nil {
				t.Fatal(err)
			}
			for j := range yi {
				if yi[j] != yc[j] {
					t.Fatalf("seed %d k=%d output %d: interpreted %v, compiled %v", seed, k, j, yi[j], yc[j])
				}
			}
			iv.ValuesInto(vi)
			cv.ValuesInto(vc)
			for n := range vi {
				if vi[n] != vc[n] {
					t.Fatalf("seed %d k=%d node %d: interpreted %v, compiled %v", seed, k, n, vi[n], vc[n])
				}
			}
		}
		cv.Release()
	}
}

// TestCompiledPeekDelayed checks that delayed reads of already-computed
// history agree between the interpreter and the compiled program.
func TestCompiledPeekDelayed(t *testing.T) {
	g := randomGraph(t, 11)
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := NewEvaluator(g)
	cv := prog.NewEvaluator()
	out := g.Outputs()[0]
	arcs := []Arc{{From: out, Delay: 1}, {From: out, Delay: 2, Weight: ConstWeight(13)}}
	for k := 0; k < 12; k++ {
		u := stepInputs(g, k)
		if _, err := iv.Step(u); err != nil {
			t.Fatal(err)
		}
		if _, err := cv.Step(u); err != nil {
			t.Fatal(err)
		}
		gi, err := iv.PeekDelayed(arcs, k+1)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := cv.PeekDelayed(arcs, k+1)
		if err != nil {
			t.Fatal(err)
		}
		if gi != gc {
			t.Fatalf("k=%d: PeekDelayed interpreted %v, compiled %v", k, gi, gc)
		}
	}
}

// TestEvaluatorPoolReuse proves Release/NewEvaluator recycles rings and
// that a recycled evaluator starts from a clean origin state.
func TestEvaluatorPoolReuse(t *testing.T) {
	g := randomGraph(t, 3)
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	first := prog.NewEvaluator()
	var want []maxplus.T
	for k := 0; k < 9; k++ {
		y, err := first.Step(stepInputs(g, k))
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			want = append([]maxplus.T(nil), y...)
		}
	}
	first.Release()

	second := prog.NewEvaluator()
	if second.K() != 0 {
		t.Fatalf("recycled evaluator starts at iteration %d", second.K())
	}
	y, err := second.Step(stepInputs(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	for j := range y {
		if y[j] != want[j] {
			t.Fatalf("recycled evaluator output %d: got %v, want %v (dirty ring?)", j, y[j], want[j])
		}
	}
	second.Release()
}

// TestCompiledStepDoesNotAllocate pins the zero-alloc property of the
// steady-state ComputeInstant loop.
func TestCompiledStepDoesNotAllocate(t *testing.T) {
	g := randomGraph(t, 5)
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	ev := prog.NewEvaluator()
	u := stepInputs(g, 0)
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ev.Step(u); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("compiled Step allocates %.1f times per iteration", allocs)
	}
}

// TestReboundPatchesWeights checks that a CloneReweighted sibling
// evaluates with its own weights through a rebound program, shares the
// original's evaluator pool, and that reclassified weights (identity →
// constant) recompile correctly.
func TestReboundPatchesWeights(t *testing.T) {
	g := New("rebindable")
	u := g.AddInput("u")
	x := g.AddNode("x", Intermediate)
	y := g.AddNode("y", Output)
	g.AddTaggedArc(u, x, 0, func(k int) maxplus.T { return maxplus.T(10 + k) }, 1)
	g.AddArc(x, y, 0, nil)
	g.AddArc(y, x, 1, nil)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}

	g2, err := g.CloneReweighted(func(to NodeID, a Arc) (Weight, error) {
		if a.Tag == 1 {
			return VaryingWeight(func(k int) maxplus.T { return maxplus.T(1000 + k) }), nil
		}
		return a.Weight, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := prog.Rebound(g2)
	if err != nil {
		t.Fatal(err)
	}
	ev, ev2 := prog.NewEvaluator(), prog2.NewEvaluator()
	in := []maxplus.T{0}
	y1, err := ev.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if y1[0] != 10 {
		t.Fatalf("template y(0) = %v, want 10", y1[0])
	}
	y2, err := ev2.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if y2[0] != 1000 {
		t.Fatalf("rebound y(0) = %v, want 1000", y2[0])
	}

	// Reclassification: the varying weight becomes a constant; the copy
	// specialization tables must be rebuilt, not shared stale.
	g3, err := g.CloneReweighted(func(to NodeID, a Arc) (Weight, error) {
		if a.Tag == 1 {
			return ConstWeight(77), nil
		}
		return a.Weight, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prog3, err := prog.Rebound(g3)
	if err != nil {
		t.Fatal(err)
	}
	ev3 := prog3.NewEvaluator()
	y3, err := ev3.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if y3[0] != 77 {
		t.Fatalf("reclassified rebound y(0) = %v, want 77", y3[0])
	}
	st := prog3.Stats()
	if st.Indirect != 0 {
		t.Fatalf("all-const rebound keeps %d indirect arcs", st.Indirect)
	}
}

// TestProgramStats sanity-checks the inline/indirect split: a pad chain
// compiles to inline arcs only.
func TestProgramStats(t *testing.T) {
	g := New("pads")
	u := g.AddInput("u")
	out := g.AddNode("y", Output)
	g.AddArc(u, out, 0, nil)
	g.AddPadChain(out, 10)
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats()
	if st.Indirect != 0 || st.Inline != 11 || st.Nodes != 11 {
		t.Fatalf("unexpected stats %+v", st)
	}
}
