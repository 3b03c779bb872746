package exp

import (
	"strings"
	"testing"

	"dyncomp/internal/model"
	"dyncomp/internal/sim"
	"dyncomp/internal/zoo"
)

// The experiment tests run with small token counts: they verify harness
// correctness and the direction of every trend, not absolute magnitudes
// (the benchmarks measure those).

func TestTable1(t *testing.T) {
	var b strings.Builder
	rows, err := Table1(400, &b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	wantNodes := []int{10, 18, 26, 34}
	for i, r := range rows {
		if r.Nodes != wantNodes[i] {
			t.Fatalf("row %d: nodes = %d, want %d", i, r.Nodes, wantNodes[i])
		}
		if r.EventRatio <= 1 {
			t.Fatalf("row %d: event ratio %.2f", i, r.EventRatio)
		}
		if i > 0 && r.EventRatio <= rows[i-1].EventRatio {
			t.Fatalf("event ratio not increasing: %+v", rows)
		}
	}
	out := b.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Example 1") {
		t.Fatalf("output = %q", out)
	}
}

func TestFig5SmallSweep(t *testing.T) {
	var b strings.Builder
	pts, err := Fig5(300, []int{6}, []int{10, 200}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.SpeedUp <= 0 {
			t.Fatalf("non-positive speed-up: %+v", p)
		}
	}
	if !strings.Contains(b.String(), "Fig. 5") {
		t.Fatal("missing header")
	}
}

func TestFig6(t *testing.T) {
	var b strings.Builder
	data, err := Fig6(2, &b)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.U) != 28 || len(data.Y) != 28 {
		t.Fatalf("u/y lengths: %d/%d", len(data.U), len(data.Y))
	}
	// Inputs are periodic at the symbol period.
	if data.U[1]-data.U[0] < 71_000 {
		t.Fatalf("symbol spacing = %v", data.U[1]-data.U[0])
	}
	// Outputs trail inputs.
	for k := range data.U {
		if data.Y[k] <= data.U[k] {
			t.Fatalf("y(%d)=%v not after u(%d)=%v", k, data.Y[k], k, data.U[k])
		}
	}
	if data.DSP.Max() <= 0 || data.HW.Max() <= 0 {
		t.Fatal("empty complexity series")
	}
	out := b.String()
	if !strings.Contains(out, "Fig. 6 (a)") || !strings.Contains(out, "GOPS") {
		t.Fatalf("output = %q", out)
	}
}

func TestCaseStudySmall(t *testing.T) {
	var b strings.Builder
	res, err := CaseStudy(280, &b)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventRatio <= 1.5 {
		t.Fatalf("event ratio %.2f, expected a clear saving", res.EventRatio)
	}
	if !strings.Contains(b.String(), "Case study") {
		t.Fatal("missing header")
	}
}

func TestAccuracyReport(t *testing.T) {
	var b strings.Builder
	n, err := AccuracyReport(func() *model.Architecture {
		return zoo.Didactic(zoo.DidacticSpec{Tokens: 200, Period: 800, Seed: 12})
	}, "equivalent", nil, &b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6*200 {
		t.Fatalf("compared %d instants, want 1200", n)
	}
	if !strings.Contains(b.String(), "identical") {
		t.Fatal("missing message")
	}
}

func TestAdaptiveCompareSmall(t *testing.T) {
	var b strings.Builder
	rows, err := AdaptiveCompare(600, &b)
	if err != nil {
		t.Fatal(err)
	}
	// One row per registered engine — at least the built-in four — with
	// the reference row first.
	if len(rows) < 4 {
		t.Fatalf("%d rows, want one per registered engine (>= 4)", len(rows))
	}
	if rows[0].Engine != "reference" {
		t.Fatalf("first row is %q, want reference", rows[0].Engine)
	}
	byName := map[string]AdaptiveRow{}
	for _, r := range rows {
		byName[r.Engine] = r
	}
	ref, eq, ad := byName["reference"], byName["equivalent"], byName["adaptive"]
	if _, ok := byName["hybrid"]; !ok {
		t.Fatal("no hybrid row")
	}
	if ad.Events != 0 || ad.Activations != 0 {
		t.Fatalf("adaptive paid kernel work: %+v", ad)
	}
	if eq.Events >= ref.Events {
		t.Fatalf("equivalent saved nothing: %d vs %d", eq.Events, ref.Events)
	}
	if !strings.Contains(b.String(), "bit-exact") {
		t.Fatal("missing header")
	}
}

func TestQuantumSweep(t *testing.T) {
	var b strings.Builder
	rows, err := QuantumSweep(300, []sim.Time{1_000, 1_000_000}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 2 quanta + the exact method
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].MeanAbsErr >= rows[1].MeanAbsErr {
		t.Fatalf("error should grow with quantum: %+v", rows)
	}
	last := rows[len(rows)-1]
	if last.Quantum != 0 || last.MeanAbsErr != 0 {
		t.Fatalf("final row should be the exact method: %+v", last)
	}
	if !strings.Contains(b.String(), "dynamic computation method") {
		t.Fatal("missing exact row")
	}
}
