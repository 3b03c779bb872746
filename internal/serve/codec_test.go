package serve

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"dyncomp/internal/engine"
	"dyncomp/internal/sweep"
)

// Every wire type must survive a marshal/unmarshal round trip unchanged
// — the schemas in docs/SERVING.md are exactly these structs.
func TestWireTypesRoundTrip(t *testing.T) {
	started := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	finished := started.Add(3 * time.Second)
	cases := []struct {
		name string
		v    any
	}{
		{"run request", &RunRequest{
			Engine:   "hybrid",
			Scenario: "didactic",
			Params:   map[string]int64{"tokens": 1000, "period": 1200},
			Options: RunOptions{
				LimitNs:   5_000_000,
				IterLimit: 100,
				WindowK:   8,
				Group:     []string{"F3", "F4"},
				Reduce:    true,
			},
		}},
		{"run request minimal", &RunRequest{Scenario: "pipeline"}},
		{"run response", &RunResponse{
			Engine:   "equivalent",
			Scenario: "didactic",
			Result: EngineResult{
				Activations: 12, Events: 34, FinalTimeNs: 56, WallNs: 78,
				Iterations: 9, GraphNodes: 10,
			},
			Cache: CacheStats{Shapes: 3, Hits: 5, Misses: 3},
		}},
		{"sweep request", &SweepRequest{
			Engine:   "adaptive",
			Scenario: "pipeline",
			Axes: []Axis{
				{Name: "xsize", Values: []int64{6, 10, 20}},
				{Name: "tokens", Values: []int64{1000}},
			},
			Params: map[string]int64{"period": 600},
			Options: SweepOptions{
				Workers: 4, WindowK: 16, Confidence: 0.95, Reduce: true, LimitNs: 7, Baseline: true,
				BatchWidth: 8, SampleTolerance: 0.01, SampleBudget: 40, SampleVerify: true,
			},
		}},
		{"job", &Job{
			ID: "job-000042", State: "running", Engine: "equivalent",
			Scenario: "lte", Done: 3, Total: 36, Created: started, Started: &started,
		}},
		{"job result", &JobResult{
			Job: Job{
				ID: "job-000042", State: "done", Engine: "equivalent", Scenario: "lte",
				Done: 2, Total: 2, Created: started, Started: &started, Finished: &finished,
			},
			Stats: &SweepStats{
				Points: 2, Shapes: 1, DeriveCalls: 1, CacheHits: 1, WallNs: 9,
				Batches: 1, BatchedPoints: 2, BatchOccupancy: 0.5,
				SimulatedPoints: 1, PredictedPoints: 1, MaxPredError: 0.004,
				SpeedUp: &Aggregate{N: 2, Min: 1, Max: 3, Mean: 2, Geomean: 1.7},
			},
			Points: []SweepPoint{
				{Params: map[string]int64{"symbols": 1000}, Result: &EngineResult{FinalTimeNs: 5}, SpeedUp: 2.5, Source: "simulated"},
				{Params: map[string]int64{"symbols": 1500}, Result: &EngineResult{FinalTimeNs: 6},
					Source: "predicted", PredBound: 0.008, PredObserved: 0.004},
				{Params: map[string]int64{"symbols": 2000}, Error: "boom"},
			},
		}},
		{"error response", &ErrorResponse{Err: Error{Code: CodeUnknownEngine, Message: "no such engine"}}},
		{"health", &Health{Status: "ok", UptimeNs: 12345, JobsQueued: 1, JobsRunning: 2, CacheShapes: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.New(reflect.TypeOf(tc.v).Elem()).Interface()
			if err := json.Unmarshal(b, got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tc.v, got) {
				t.Fatalf("round trip changed the value:\n in: %#v\nout: %#v\njson: %s", tc.v, got, b)
			}
		})
	}
}

// The documented field names are part of the API contract; a silently
// renamed JSON tag must fail this test, not a client.
func TestWireFieldNames(t *testing.T) {
	b, err := json.Marshal(RunResponse{
		Result: EngineResult{Iterations: 1, GraphNodes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	result, ok := m["result"].(map[string]any)
	if !ok {
		t.Fatalf("no result object in %s", b)
	}
	for _, key := range []string{
		"activations", "events", "final_time_ns", "wall_ns",
		"iterations", "graph_nodes",
	} {
		if _, ok := result[key]; !ok {
			t.Errorf("result field %q missing in %s", key, b)
		}
	}
	cache, ok := m["cache"].(map[string]any)
	if !ok {
		t.Fatalf("no cache object in %s", b)
	}
	for _, key := range []string{"shapes", "hits", "misses"} {
		if _, ok := cache[key]; !ok {
			t.Errorf("cache field %q missing in %s", key, b)
		}
	}
}

// The sampling knobs and result flags are part of the published schema
// too; pin their exact field names.
func TestSampleWireFieldNames(t *testing.T) {
	checkKeys := func(v any, keys ...string) {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if _, ok := m[key]; !ok {
				t.Errorf("field %q missing in %s", key, b)
			}
		}
	}
	checkKeys(SweepOptions{Confidence: 0.9, SampleTolerance: 0.01, SampleBudget: 4, SampleVerify: true},
		"confidence", "sample_tolerance", "sample_budget", "sample_verify")
	checkKeys(SweepStats{SimulatedPoints: 1, PredictedPoints: 2, MaxPredError: 0.5},
		"simulated_points", "predicted_points", "max_pred_error")
	checkKeys(SweepPoint{Source: "predicted", PredBound: 0.1, PredObserved: 0.05},
		"source", "pred_bound", "pred_observed")
	checkKeys(RunOptions{Confidence: 0.9}, "confidence")
}

// resultJSON and pointJSON must carry every wire engine-result field.
func TestResultConversions(t *testing.T) {
	er := &engine.Result{
		Activations: 1, Events: 2, FinalTimeNs: 3, WallNs: 4,
		Iterations: 5, GraphNodes: 6,
	}
	got := resultJSON(er)
	want := EngineResult{
		Activations: 1, Events: 2, FinalTimeNs: 3, WallNs: 4,
		Iterations: 5, GraphNodes: 6,
	}
	if got != want {
		t.Fatalf("resultJSON = %+v, want %+v", got, want)
	}

	pr := sweep.PointResult{
		Point: sweep.Point{Names: []string{"a", "b"}, Values: []int64{1, 2}},
		Run: sweep.PointStats{
			Activations: 1, Events: 2, FinalTimeNs: 3, Iterations: 4,
			GraphNodes: 5, Wall: 8 * time.Nanosecond,
		},
		EventRatio: 1.5,
		SpeedUp:    2.5,
	}
	sp := pointJSON(pr)
	if sp.Error != "" || sp.Result == nil {
		t.Fatalf("pointJSON = %+v", sp)
	}
	if sp.Params["a"] != 1 || sp.Params["b"] != 2 {
		t.Fatalf("params %+v", sp.Params)
	}
	if *sp.Result != (EngineResult{
		Activations: 1, Events: 2, FinalTimeNs: 3, WallNs: 8,
		Iterations: 4, GraphNodes: 5,
	}) {
		t.Fatalf("point result %+v", *sp.Result)
	}
	if sp.EventRatio != 1.5 || sp.SpeedUp != 2.5 {
		t.Fatalf("ratios %+v", sp)
	}

	pr.Source = sweep.SourcePredicted
	pr.PredBound = 0.01
	pr.PredObserved = 0.002
	sp = pointJSON(pr)
	if sp.Source != "predicted" || sp.PredBound != 0.01 || sp.PredObserved != 0.002 {
		t.Fatalf("sampling fields lost: %+v", sp)
	}
}

// statsJSON maps sweep statistics onto the wire, omitting aggregates of
// sweeps without a baseline.
func TestStatsConversion(t *testing.T) {
	st := sweep.Stats{
		Points: 6, Failed: 1, Shapes: 2, DeriveCalls: 2, CacheHits: 4,
		Wall:    42 * time.Nanosecond,
		Batches: 2, BatchedPoints: 5, BatchOccupancy: 0.625,
		SimulatedPoints: 4, PredictedPoints: 2, MaxPredError: 0.003,
	}
	got := statsJSON(st)
	if got.Points != 6 || got.Failed != 1 || got.Shapes != 2 ||
		got.DeriveCalls != 2 || got.CacheHits != 4 || got.WallNs != 42 {
		t.Fatalf("statsJSON = %+v", got)
	}
	if got.Batches != 2 || got.BatchedPoints != 5 || got.BatchOccupancy != 0.625 {
		t.Fatalf("batch stats lost: %+v", got)
	}
	if got.SimulatedPoints != 4 || got.PredictedPoints != 2 || got.MaxPredError != 0.003 {
		t.Fatalf("sampling stats lost: %+v", got)
	}
	if got.SpeedUp != nil || got.EventRatio != nil {
		t.Fatal("aggregates present without baseline")
	}
	st.SpeedUp = sweep.Aggregate{N: 5, Min: 1, Max: 2, Mean: 1.5, Geomean: 1.4}
	if got := statsJSON(st); got.SpeedUp == nil || got.SpeedUp.N != 5 {
		t.Fatalf("speed-up aggregate lost: %+v", got.SpeedUp)
	}
}

// sweepAxes validates the wire grid.
func TestSweepAxesValidation(t *testing.T) {
	if _, err := sweepAxes(nil); err == nil {
		t.Error("empty axes accepted")
	}
	if _, err := sweepAxes([]Axis{{Values: []int64{1}}}); err == nil {
		t.Error("unnamed axis accepted")
	}
	if _, err := sweepAxes([]Axis{{Name: "a"}}); err == nil {
		t.Error("valueless axis accepted")
	}
	if _, err := sweepAxes([]Axis{
		{Name: "a", Values: []int64{1}}, {Name: "a", Values: []int64{2}},
	}); err == nil {
		t.Error("duplicate axis accepted")
	}
	axes, err := sweepAxes([]Axis{{Name: "a", Values: []int64{1, 2}}})
	if err != nil || len(axes) != 1 || axes[0].Name != "a" {
		t.Fatalf("valid axes rejected: %v %v", axes, err)
	}
}
