package tdg

import (
	"testing"

	"dyncomp/internal/maxplus"
)

// laneProgs binds L weight-lane siblings of prog, each with a distinct
// offset on every row entry.
func laneProgs(t *testing.T, prog *Program, L int) []*Program {
	t.Helper()
	progs := make([]*Program, L)
	for l := range progs {
		pl, err := prog.Bind(testRow{width: prog.rowRefs, delta: maxplus.T(1 + 13*l)})
		if err != nil {
			t.Fatal(err)
		}
		progs[l] = pl
	}
	return progs
}

// laneInputs builds the lane-strided input vector of iteration k: each
// lane sees the scalar inputs shifted by a lane-specific offset.
func laneInputs(g *Graph, k, L int) []maxplus.T {
	u := make([]maxplus.T, len(g.Inputs())*L)
	for i := range g.Inputs() {
		for l := 0; l < L; l++ {
			u[i*L+l] = maxplus.T(int64(k)*50+int64(i)*7) + maxplus.T(3*l)
		}
	}
	return u
}

// checkBatchAgainstScalar steps the batch and per-lane scalar evaluators
// (compiled and interpreting) in lockstep for `steps` iterations and
// compares every output and every node instant bit-exactly.
func checkBatchAgainstScalar(t *testing.T, g *Graph, progs []*Program, be *BatchEvaluator, scalars []*Evaluator, steps int) {
	t.Helper()
	L := be.width
	interp := make([]*Interpreter, L)
	for l := range interp {
		interp[l] = progs[l].NewInterpreter()
	}
	vb := make([]maxplus.T, g.NodeCount())
	vs := make([]maxplus.T, g.NodeCount())
	for k := 0; k < steps; k++ {
		u := laneInputs(g, k, L)
		yb, err := be.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < L; l++ {
			su := make([]maxplus.T, len(g.Inputs()))
			for i := range su {
				su[i] = u[i*L+l]
			}
			ys, err := scalars[l].Step(su)
			if err != nil {
				t.Fatal(err)
			}
			yi, err := interp[l].Step(su)
			if err != nil {
				t.Fatal(err)
			}
			for j := range ys {
				if yb[j*L+l] != ys[j] {
					t.Fatalf("L=%d lane %d k=%d output %d: batch %v, scalar %v", L, l, k, j, yb[j*L+l], ys[j])
				}
				if yb[j*L+l] != yi[j] {
					t.Fatalf("L=%d lane %d k=%d output %d: batch %v, interpreted %v", L, l, k, j, yb[j*L+l], yi[j])
				}
			}
			be.LaneValuesInto(l, vb)
			scalars[l].ValuesInto(vs)
			for n := range vb {
				if vb[n] != vs[n] {
					t.Fatalf("L=%d lane %d k=%d node %d: batch %v, scalar %v", L, l, k, n, vb[n], vs[n])
				}
			}
		}
	}
}

// TestBatchMatchesScalarOnRandomGraphs is the batch-level bit-exactness
// property: every instant of every lane agrees with a per-lane scalar
// run — compiled and interpreting — through the warm window and deep
// into steady state, across batch widths.
func TestBatchMatchesScalarOnRandomGraphs(t *testing.T) {
	for _, L := range []int{1, 2, 7, 32} {
		for seed := int64(0); seed < 8; seed++ {
			g, prog := compileRandom(t, seed)
			progs := laneProgs(t, prog, L)
			be, err := NewBatchEvaluator(progs)
			if err != nil {
				t.Fatal(err)
			}
			scalars := make([]*Evaluator, L)
			for l := range scalars {
				scalars[l] = progs[l].NewEvaluator()
			}
			checkBatchAgainstScalar(t, g, progs, be, scalars, 25)
			for _, s := range scalars {
				s.Release()
			}
			be.Release()
		}
	}
}

// TestBatchDisableKeepsOtherLanesExact retires one lane mid-run and
// checks the surviving lanes stay bit-exact against their scalar runs.
func TestBatchDisableKeepsOtherLanesExact(t *testing.T) {
	g, prog := compileRandom(t, 4)
	const L = 4
	progs := laneProgs(t, prog, L)
	be, err := NewBatchEvaluator(progs)
	if err != nil {
		t.Fatal(err)
	}
	scalars := make([]*Evaluator, L)
	for l := range scalars {
		scalars[l] = progs[l].NewEvaluator()
	}
	vb := make([]maxplus.T, g.NodeCount())
	vs := make([]maxplus.T, g.NodeCount())
	for k := 0; k < 18; k++ {
		if k == 6 {
			be.Disable(1)
			if be.ActiveLanes() != L-1 {
				t.Fatalf("ActiveLanes = %d after Disable", be.ActiveLanes())
			}
		}
		u := laneInputs(g, k, L)
		if _, err := be.Step(u); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < L; l++ {
			if l == 1 {
				continue
			}
			su := make([]maxplus.T, len(g.Inputs()))
			for i := range su {
				su[i] = u[i*L+l]
			}
			if _, err := scalars[l].Step(su); err != nil {
				t.Fatal(err)
			}
			be.LaneValuesInto(l, vb)
			scalars[l].ValuesInto(vs)
			for n := range vb {
				if vb[n] != vs[n] {
					t.Fatalf("lane %d k=%d node %d: batch %v, scalar %v", l, k, n, vb[n], vs[n])
				}
			}
		}
	}
}

// TestBatchPoolReuse proves Release/NewBatchEvaluator recycles the lane
// buffers through the programs' shared pool and that a recycled batch
// starts from a clean origin state.
func TestBatchPoolReuse(t *testing.T) {
	g, prog := compileRandom(t, 3)
	const L = 5
	progs := laneProgs(t, prog, L)
	first, err := NewBatchEvaluator(progs)
	if err != nil {
		t.Fatal(err)
	}
	var want []maxplus.T
	for k := 0; k < 7; k++ {
		y, err := first.Step(laneInputs(g, k, L))
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			want = append([]maxplus.T(nil), y...)
		}
	}
	first.Release()

	second, err := NewBatchEvaluator(progs)
	if err != nil {
		t.Fatal(err)
	}
	if second != first && !raceEnabled {
		t.Fatal("pool did not recycle the batch evaluator")
	}
	if second.K() != 0 || second.ActiveLanes() != L {
		t.Fatalf("recycled batch at k=%d with %d active lanes", second.K(), second.ActiveLanes())
	}
	y, err := second.Step(laneInputs(g, 0, L))
	if err != nil {
		t.Fatal(err)
	}
	for j := range y {
		if y[j] != want[j] {
			t.Fatalf("recycled batch output %d: got %v, want %v (dirty ring?)", j, y[j], want[j])
		}
	}
	second.Release()
}

// TestBatchRejectsIncompatibleLanes pins the scalar-fallback trigger:
// only a Bind sibling of lane 0 can join a batch, so neither a
// structurally different program nor an independent compile of the same
// graph can.
func TestBatchRejectsIncompatibleLanes(t *testing.T) {
	g1 := randomGraph(t, 1)
	g2 := randomGraph(t, 2)
	p1, err := Compile(g1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(g2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchEvaluator([]*Program{p1, p2}); err == nil {
		t.Fatal("NewBatchEvaluator accepted structurally different lanes")
	}
	again, err := Compile(g1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchEvaluator([]*Program{p1, again}); err == nil {
		t.Fatal("NewBatchEvaluator accepted an independent compile of lane 0's graph")
	}
	if _, err := NewBatchEvaluator(nil); err == nil {
		t.Fatal("NewBatchEvaluator accepted zero lanes")
	}
}

// TestBatchRowFreeProgram batches a program whose weights are all
// inline, so its row is empty: every lane still steps.
func TestBatchRowFreeProgram(t *testing.T) {
	g := New("rowfree")
	u := g.AddInput("u")
	y := g.AddNode("y", Output)
	g.AddArc(u, y, 0, ConstWeight(5))
	g.AddArc(y, y, 1, ConstWeight(7))
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBatchEvaluator(laneProgs(t, prog, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Release()
	if _, err := be.Step([]maxplus.T{0, 10, 20}); err != nil {
		t.Fatal(err)
	}
	y1, err := be.Step([]maxplus.T{0, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	// y(1) = max(u + 5, y(0) + 7) = max(u + 5, u + 12).
	for l, want := range []maxplus.T{12, 22, 32} {
		if y1[l] != want {
			t.Fatalf("lane %d: y(1) = %v, want %v", l, y1[l], want)
		}
	}
}

// TestBatchStepDoesNotAllocate pins the zero-alloc property of the
// sequential batched pass.
func TestBatchStepDoesNotAllocate(t *testing.T) {
	g, prog := compileRandom(t, 5)
	const L = 8
	progs := laneProgs(t, prog, L)
	be, err := NewBatchEvaluator(progs)
	if err != nil {
		t.Fatal(err)
	}
	u := laneInputs(g, 0, L)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := be.Step(u); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched Step allocates %.1f times per iteration", allocs)
	}
}

// TestBindSharesProgram pins what Bind shares: a sibling aliases the
// parent's packed arcs and pools (no per-point table
// allocation on the sweep rebind path) and joins its batch, reading
// only its own row.
func TestBindSharesProgram(t *testing.T) {
	g := New("shared")
	u := g.AddInput("u")
	x := g.AddNode("x", Intermediate)
	y := g.AddNode("y", Output)
	g.AddArc(u, x, 0, RowWeight(0))
	g.AddArc(x, y, 0, ConstWeight(5))
	g.AddArc(y, x, 1, Weight{})
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	progs := laneProgs(t, prog, 2)
	for _, p := range progs {
		if &p.arcs[0] != &prog.arcs[0] || p.bpool != prog.bpool {
			t.Fatal("Bind copied the compiled program")
		}
	}
	be, err := NewBatchEvaluator(progs)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Release()
	yb, err := be.Step([]maxplus.T{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Lane l reads row entry 0 = 1 + 13·l at k=0, then the const 5.
	if yb[0] != 6 || yb[1] != 19 {
		t.Fatalf("batched y(0) = %v, want [6 19]", yb[:2])
	}
	row := make([]maxplus.T, 1)
	be.LaneRowInto(1, row)
	if row[0] != 14 {
		t.Fatalf("lane 1 row = %v, want [14]", row)
	}
}
