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
	rowEntries := 0
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
				g.AddArc(from, id, delay, Weight{})
			case 1:
				g.AddArc(from, id, delay, ConstWeight(maxplus.T(r.Int63n(500))))
			default:
				g.AddArc(from, id, delay, RowWeight(rowEntries))
				rowEntries++
			}
		}
		// Occasional delayed self-feedback, as rotation gates produce.
		if r.Intn(4) == 0 {
			g.AddArc(id, id, 1+r.Intn(2), Weight{})
		}
		ids = append(ids, id)
	}
	g.AddPadChain(ids[len(ids)-1], 3+r.Intn(5))
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	return g
}

// testRow fills row entry i of iteration k with (k mod 97)·(i+1) plus a
// per-binding offset.
type testRow struct {
	width int
	delta maxplus.T
}

func (r testRow) Width() int { return r.width }

func (r testRow) Fill(k int, row []maxplus.T, stride int) error {
	for i := 0; i < r.width; i++ {
		row[i*stride] = maxplus.T(int64(k)%97*int64(i+1)) + r.delta
	}
	return nil
}

// compileRandom compiles randomGraph(seed) with its row weights bound.
func compileRandom(t *testing.T, seed int64) (*Graph, *Program) {
	t.Helper()
	g := randomGraph(t, seed)
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if prog, err = prog.Bind(testRow{width: prog.rowRefs}); err != nil {
		t.Fatal(err)
	}
	return g, prog
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
		g, prog := compileRandom(t, seed)
		iv := prog.NewInterpreter()
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

// TestEvaluatorPoolReuse proves Release/NewEvaluator recycles rings and
// that a recycled evaluator starts from a clean origin state.
func TestEvaluatorPoolReuse(t *testing.T) {
	g, prog := compileRandom(t, 3)
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
	g, prog := compileRandom(t, 5)
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

// TestBindReadsItsOwnRow checks that Bind siblings of one compiled
// program each evaluate with their own row, share the evaluator pool,
// and that a program reading row weights refuses too narrow inputs and
// fails to step unbound.
func TestBindReadsItsOwnRow(t *testing.T) {
	g := New("bindable")
	u := g.AddInput("u")
	x := g.AddNode("x", Intermediate)
	y := g.AddNode("y", Output)
	g.AddArc(u, x, 0, RowWeight(1))
	g.AddArc(x, y, 0, Weight{})
	g.AddArc(y, x, 1, Weight{})
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.NewEvaluator().Step([]maxplus.T{0}); err == nil {
		t.Fatal("an unbound program stepped its row weights")
	}
	if _, err := prog.Bind(testRow{width: 1}); err == nil {
		t.Fatal("Bind accepted inputs narrower than the row the arcs read")
	}
	p1, err := prog.Bind(testRow{width: 2, delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := prog.Bind(testRow{width: 2, delta: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if p1.pool != p2.pool || &p1.arcs[0] != &p2.arcs[0] {
		t.Fatal("Bind siblings do not share the evaluator pool and arc table")
	}
	ev1, ev2 := p1.NewEvaluator(), p2.NewEvaluator()
	in := []maxplus.T{0}
	// Row entry 1 of iteration 0 is the binding's offset.
	if y1, err := ev1.Step(in); err != nil || y1[0] != 10 {
		t.Fatalf("first binding y(0) = %v (%v), want 10", y1, err)
	}
	if y2, err := ev2.Step(in); err != nil || y2[0] != 1000 {
		t.Fatalf("second binding y(0) = %v (%v), want 1000", y2, err)
	}
	row, err := ev2.Row(2)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 1002 || row[1] != 1004 {
		t.Fatalf("row of k=2 = %v, want [1002 1004]", row)
	}
}

// TestProgramStats sanity-checks the inline/indirect split: a pad chain
// compiles to inline arcs only.
func TestProgramStats(t *testing.T) {
	g := New("pads")
	u := g.AddInput("u")
	out := g.AddNode("y", Output)
	g.AddArc(u, out, 0, Weight{})
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
