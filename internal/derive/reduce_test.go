package derive

import (
	"testing"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/zoo"
)

// Reduction on the didactic graph removes exactly one arc: F2's
// own-previous-end gate xM4(k-1) → xM3, which is dominated by the path
// xM4 → xM5 → xM2(k-1) → xM3. The binding gates must survive.
func TestReduceDidactic(t *testing.T) {
	full, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1}), Options{Reduce: true})
	if err != nil {
		t.Fatal(err)
	}
	count := func(r *Result) int {
		n := 0
		for _, node := range r.Graph.Nodes() {
			n += len(r.Graph.Incoming(node.ID))
		}
		return n
	}
	if got, want := count(red), count(full)-1; got != want {
		t.Fatalf("reduced graph has %d arcs, want %d", got, want)
	}
	// xM3 must have lost its delayed arc.
	m3, _ := red.Graph.NodeByName("M3")
	for _, a := range red.Graph.Incoming(m3.ID) {
		if a.Delay == 1 {
			t.Fatal("xM4(k-1) → xM3 should have been reduced")
		}
	}
	// xM1's gate must survive (no alternative path into xM1).
	m1, _ := red.Graph.NodeByName("M1")
	hasGate := false
	for _, a := range red.Graph.Incoming(m1.ID) {
		if a.Delay == 1 {
			hasGate = true
		}
	}
	if !hasGate {
		t.Fatal("the binding gate xM4(k-1) → xM1 was wrongly reduced")
	}
}

// A reduced graph computes identical instants.
func TestReducePreservesValues(t *testing.T) {
	specs := []zoo.DidacticSpec{
		{Tokens: 200, Period: 700, Seed: 3},
		{Tokens: 200, Period: 0, Seed: 4},
	}
	for _, spec := range specs {
		full, err := Derive(zoo.Didactic(spec), Options{})
		if err != nil {
			t.Fatal(err)
		}
		red, err := Derive(zoo.Didactic(spec), Options{Reduce: true})
		if err != nil {
			t.Fatal(err)
		}
		ef := full.Program().NewEvaluator()
		er := red.Program().NewEvaluator()
		for k := 0; k < spec.Tokens; k++ {
			u := maxplus.T(int64(k) * int64(spec.Period))
			yf, err1 := ef.Step([]maxplus.T{u})
			yr, err2 := er.Step([]maxplus.T{u})
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if yf[0] != yr[0] {
				t.Fatalf("k=%d: reduced output %v != %v", k, yr[0], yf[0])
			}
			// Compare every shared named node.
			for _, n := range full.Graph.Nodes() {
				rn, ok := red.Graph.NodeByName(n.Name)
				if !ok {
					continue
				}
				if ef.Value(n.ID) != er.Value(rn.ID) {
					t.Fatalf("k=%d node %s: %v != %v", k, n.Name, er.Value(rn.ID), ef.Value(n.ID))
				}
			}
		}
	}
}

// Reduction must never remove weighted arcs.
func TestReduceKeepsWeightedArcs(t *testing.T) {
	red, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1}), Options{Reduce: true})
	if err != nil {
		t.Fatal(err)
	}
	// Each equation's duration arcs must still be present: 6 weighted arcs.
	weighted := 0
	for _, node := range red.Graph.Nodes() {
		for _, a := range red.Graph.Incoming(node.ID) {
			if !a.Weight.IsIdentity() {
				weighted++
			}
		}
	}
	if weighted != 6 {
		t.Fatalf("%d weighted arcs, want 6", weighted)
	}
}
