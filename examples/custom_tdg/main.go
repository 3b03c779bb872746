// Custom temporal dependency graph example: writes the paper's equations
// (1)-(6) by hand — the way the paper's authors did before their
// generation tool existed — evaluates them with ComputeInstant steps, and
// cross-checks the result against the automatically derived graph of the
// same architecture.
//
//	go run ./examples/custom_tdg
package main

import (
	"fmt"
	"log"

	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/tdg"
	"dyncomp/internal/zoo"
)

func main() {
	const tokens = 1000
	spec := zoo.DidacticSpec{Tokens: tokens, Period: 1000, Seed: 77}

	// Hand-written graph implementing, literally:
	//   xM1(k) = u(k) ⊕ xM4(k-1)                                  (1)
	//   xM2(k) = xM1(k)⊗Ti1(k) ⊕ xM5(k-1)                         (2)
	//   xM3(k) = xM2(k)⊗Tj1(k) ⊕ xM4(k-1)                         (3)
	//   xM4(k) = xM3(k)⊗Ti2(k) ⊕ xM2(k)⊗Ti3(k) ⊕ xM5(k-1)         (4)
	//   xM5(k) = xM4(k)⊗Tj3(k) ⊕ xM6(k-1)                         (5)
	//   y(k)   = xM6(k) = xM5(k)⊗Ti4(k)                           (6)
	g := tdg.New("didactic-by-hand")
	u := g.AddInput("u")
	xM1 := g.AddNode("xM1", tdg.Intermediate)
	xM2 := g.AddNode("xM2", tdg.Intermediate)
	xM3 := g.AddNode("xM3", tdg.Intermediate)
	xM4 := g.AddNode("xM4", tdg.Intermediate)
	xM5 := g.AddNode("xM5", tdg.Intermediate)
	xM6 := g.AddNode("xM6", tdg.Output)

	// Ti1, Tj1, Ti2, Ti3, Tj3 and Ti4 vary with k: they are entries 0-5
	// of the iteration row, which durations fills once per iteration.
	none := tdg.Weight{}
	g.AddArc(u, xM1, 0, none)
	g.AddArc(xM4, xM1, 1, none)
	g.AddArc(xM1, xM2, 0, tdg.RowWeight(0))
	g.AddArc(xM5, xM2, 1, none)
	g.AddArc(xM2, xM3, 0, tdg.RowWeight(1))
	g.AddArc(xM4, xM3, 1, none)
	g.AddArc(xM3, xM4, 0, tdg.RowWeight(2))
	g.AddArc(xM2, xM4, 0, tdg.RowWeight(3))
	g.AddArc(xM5, xM4, 1, none) // the paper's redundant term, kept literal
	g.AddArc(xM4, xM5, 0, tdg.RowWeight(4))
	g.AddArc(xM6, xM5, 1, none)
	g.AddArc(xM5, xM6, 0, tdg.RowWeight(5))
	if err := g.Freeze(); err != nil {
		log.Fatal(err)
	}
	prog, err := tdg.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	if prog, err = prog.Bind(durations{seed: spec.Seed}); err != nil {
		log.Fatal(err)
	}
	hand := prog.NewEvaluator()

	// Automatically derived graph of the same architecture.
	dres, err := derive.Derive(zoo.Didactic(spec), derive.Options{})
	if err != nil {
		log.Fatal(err)
	}
	auto := dres.Program().NewEvaluator()

	for k := 0; k < tokens; k++ {
		in := []maxplus.T{maxplus.T(int64(k) * 1000)}
		yh, err := hand.Step(in)
		if err != nil {
			log.Fatal(err)
		}
		ya, err := auto.Step(in)
		if err != nil {
			log.Fatal(err)
		}
		if yh[0] != ya[0] {
			log.Fatalf("k=%d: hand-written %v != derived %v", k, yh[0], ya[0])
		}
	}
	fmt.Printf("hand-written equations (1)-(6) and the derived graph agree on %d iterations\n", tokens)
	fmt.Printf("hand-written graph: %d nodes (%d with delayed references)\n", g.NodeCount(), g.NodeCountWithDelays())
	fmt.Printf("derived graph:      %d nodes (%d with delayed references)\n",
		dres.Graph.NodeCount(), dres.Graph.NodeCountWithDelays())
	fmt.Printf("last output instant: y(%d) = %v ns\n", tokens-1, hand.Value(xM6))
}

// durations fills iteration k's row with the didactic architecture's
// six durations, in the order Ti1, Tj1, Ti2, Ti3, Tj3, Ti4.
type durations struct{ seed int64 }

func (durations) Width() int { return 6 }

func (d durations) Fill(k int, row []maxplus.T, stride int) error {
	ti1, tj1, ti2, ti3, tj3, ti4 := zoo.DidacticDurations(d.seed, k)
	for i, v := range []maxplus.T{ti1, tj1, ti2, ti3, tj3, ti4} {
		row[i*stride] = v
	}
	return nil
}
