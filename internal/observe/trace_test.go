package observe

import (
	"strings"
	"testing"

	"dyncomp/internal/maxplus"
)

func TestRecordAndQueryInstants(t *testing.T) {
	tr := NewTrace("t")
	tr.RecordInstant("M1", 10)
	tr.RecordInstant("M1", 20)
	tr.RecordInstant("M2", 15)
	if got := tr.Instants("M1"); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("M1 instants = %v", got)
	}
	if got := tr.Labels(); len(got) != 2 || got[0] != "M1" || got[1] != "M2" {
		t.Fatalf("labels = %v", got)
	}
	if got := tr.Instants("missing"); got != nil {
		t.Fatalf("missing label = %v", got)
	}
}

func TestRecordActivities(t *testing.T) {
	tr := NewTrace("t")
	tr.RecordActivity(Activity{Resource: "P1", Label: "T", K: 0, Start: 0, End: 10, Ops: 100})
	tr.RecordActivity(Activity{Resource: "P2", Label: "U", K: 0, Start: 5, End: 9, Ops: 50})
	if got := tr.Resources(); len(got) != 2 {
		t.Fatalf("resources = %v", got)
	}
	if got := tr.Activities("P1"); len(got) != 1 || got[0].Ops != 100 {
		t.Fatalf("P1 activities = %v", got)
	}
}

func TestInstantTraceDropsActivities(t *testing.T) {
	tr := NewInstantTrace("t")
	tr.RecordInstant("M1", 10)
	tr.RecordActivity(Activity{Resource: "P1", Label: "Ti1", Start: 0, End: 50})
	if got := tr.Instants("M1"); len(got) != 1 || got[0] != 10 {
		t.Fatalf("M1 instants = %v", got)
	}
	if len(tr.Resources()) != 0 || len(tr.Activities("P1")) != 0 {
		t.Fatalf("instant trace kept activity: %v", tr.Activities("P1"))
	}
	if tr.EndTime() != 10 {
		t.Fatalf("EndTime = %v, want 10", tr.EndTime())
	}
}

func TestEndTime(t *testing.T) {
	tr := NewTrace("t")
	if got := tr.EndTime(); got != maxplus.Epsilon {
		t.Fatalf("empty EndTime = %v", got)
	}
	tr.RecordInstant("M", 42)
	tr.RecordActivity(Activity{Resource: "P", Start: 10, End: 99})
	if got := tr.EndTime(); got != 99 {
		t.Fatalf("EndTime = %v", got)
	}
}

func TestCompareInstantsEqual(t *testing.T) {
	a, b := NewTrace("a"), NewTrace("b")
	for _, tr := range []*Trace{a, b} {
		tr.RecordInstant("M1", 1)
		tr.RecordInstant("M1", 2)
		tr.RecordInstant("M2", 3)
	}
	if err := CompareInstants(a, b); err != nil {
		t.Fatal(err)
	}
}

func TestCompareInstantsValueMismatch(t *testing.T) {
	a, b := NewTrace("a"), NewTrace("b")
	a.RecordInstant("M1", 1)
	b.RecordInstant("M1", 2)
	err := CompareInstants(a, b)
	if err == nil {
		t.Fatal("expected mismatch")
	}
	diff, ok := err.(*InstantDiff)
	if !ok {
		t.Fatalf("err type %T", err)
	}
	if diff.Label != "M1" || diff.K != 0 || diff.A != 1 || diff.B != 2 {
		t.Fatalf("diff = %+v", diff)
	}
	if !strings.Contains(diff.Error(), "M1(0)") {
		t.Fatalf("message = %q", diff.Error())
	}
}

func TestCompareInstantsLengthMismatch(t *testing.T) {
	a, b := NewTrace("a"), NewTrace("b")
	a.RecordInstant("M1", 1)
	a.RecordInstant("M1", 2)
	b.RecordInstant("M1", 1)
	err := CompareInstants(a, b)
	if err == nil {
		t.Fatal("expected mismatch")
	}
	diff := err.(*InstantDiff)
	if diff.K != 1 || diff.A != 2 || diff.B != maxplus.Epsilon {
		t.Fatalf("diff = %+v", diff)
	}
}

func TestCompareInstantsLabelMismatch(t *testing.T) {
	a, b := NewTrace("a"), NewTrace("b")
	a.RecordInstant("M1", 1)
	b.RecordInstant("M2", 1)
	if err := CompareInstants(a, b); err == nil || !strings.Contains(err.Error(), "label sets") {
		t.Fatalf("err = %v", err)
	}
	c := NewTrace("c")
	if err := CompareInstants(a, c); err == nil {
		t.Fatal("expected label mismatch for empty trace")
	}
}

func TestMeanAbsInstantError(t *testing.T) {
	a, b := NewTrace("a"), NewTrace("b")
	a.RecordInstant("M", 10)
	a.RecordInstant("M", 20)
	b.RecordInstant("M", 13)
	b.RecordInstant("M", 15)
	if got := MeanAbsInstantError(a, b); got != 4 { // (3+5)/2
		t.Fatalf("error = %v, want 4", got)
	}
	if got := MeanAbsInstantError(NewTrace("x"), NewTrace("y")); got != 0 {
		t.Fatalf("empty error = %v", got)
	}
}

func TestUtilizationNonOverlapping(t *testing.T) {
	tr := NewTrace("t")
	tr.RecordActivity(Activity{Resource: "P", Start: 0, End: 25})
	tr.RecordActivity(Activity{Resource: "P", Start: 50, End: 75})
	if got := tr.Utilization("P", 0, 100); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestUtilizationOverlapCountedOnce(t *testing.T) {
	tr := NewTrace("t")
	tr.RecordActivity(Activity{Resource: "P", Start: 0, End: 60})
	tr.RecordActivity(Activity{Resource: "P", Start: 30, End: 80})
	if got := tr.Utilization("P", 0, 100); got != 0.8 {
		t.Fatalf("utilization = %v, want 0.8", got)
	}
}

func TestUtilizationClampsWindow(t *testing.T) {
	tr := NewTrace("t")
	tr.RecordActivity(Activity{Resource: "P", Start: -50, End: 50})
	if got := tr.Utilization("P", 0, 100); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if got := tr.Utilization("P", 100, 100); got != 0 {
		t.Fatalf("empty window = %v", got)
	}
}

func TestBusyTimeCountsConcurrency(t *testing.T) {
	tr := NewTrace("t")
	tr.RecordActivity(Activity{Resource: "H", Start: 0, End: 60})
	tr.RecordActivity(Activity{Resource: "H", Start: 30, End: 80})
	if got := tr.BusyTime("H", 0, 100); got != 110 {
		t.Fatalf("busy = %v, want 110", got)
	}
}

func TestComplexitySeries(t *testing.T) {
	tr := NewTrace("t")
	// 1000 ops over [0, 100): rate 10 ops/tick.
	tr.RecordActivity(Activity{Resource: "P", Start: 0, End: 100, Ops: 1000})
	s, err := tr.ComplexitySeries("P", 0, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bins() != 4 {
		t.Fatalf("bins = %d", s.Bins())
	}
	if s.Values[0] != 10 || s.Values[1] != 10 {
		t.Fatalf("busy bins = %v", s.Values)
	}
	if s.Values[2] != 0 || s.Values[3] != 0 {
		t.Fatalf("idle bins = %v", s.Values)
	}
	if s.Max() != 10 {
		t.Fatalf("Max = %v", s.Max())
	}
	if s.TimeOf(2) != 100 {
		t.Fatalf("TimeOf(2) = %v", s.TimeOf(2))
	}
}

func TestComplexitySeriesPartialBins(t *testing.T) {
	tr := NewTrace("t")
	// 100 ops over [25, 75): rate 2 ops/tick; bin width 50:
	// bin 0 gets 25 ticks * 2 = 50 ops / 50 = 1; bin 1 same.
	tr.RecordActivity(Activity{Resource: "P", Start: 25, End: 75, Ops: 100})
	s, err := tr.ComplexitySeries("P", 0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s.Values[0] != 1 || s.Values[1] != 1 {
		t.Fatalf("values = %v", s.Values)
	}
}

func TestComplexitySeriesErrors(t *testing.T) {
	tr := NewTrace("t")
	if _, err := tr.ComplexitySeries("P", 0, 100, 0); err == nil {
		t.Fatal("expected bin width error")
	}
	if _, err := tr.ComplexitySeries("P", 100, 100, 10); err == nil {
		t.Fatal("expected window error")
	}
}

func TestSeriesCSV(t *testing.T) {
	s := &Series{From: 0, BinWidth: 10, Values: []float64{1.5, 2.5}}
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "time_ns,value") || !strings.Contains(out, "0,1.5") || !strings.Contains(out, "10,2.5") {
		t.Fatalf("csv = %q", out)
	}
}

func TestInstantsCSV(t *testing.T) {
	tr := NewTrace("t")
	tr.RecordInstant("M1", 5)
	tr.RecordInstant("M1", maxplus.Epsilon) // skipped
	tr.RecordInstant("M2", 7)
	var b strings.Builder
	if err := tr.WriteInstantsCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "M1,0,5") || !strings.Contains(out, "M2,0,7") {
		t.Fatalf("csv = %q", out)
	}
	if strings.Contains(out, "M1,1") {
		t.Fatal("ε instant not skipped")
	}
}
