package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: at(0), End: at(100)},
		// Two overlapping children cover [10, 50); a third [60, 70).
		{ID: 2, Parent: 1, Op: 1, Name: "layer", Tag: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Op: 1, Name: "layer", Tag: "b", Start: at(20), End: at(50)},
		{ID: 4, Parent: 1, Op: 1, Name: "other", Start: at(60), End: at(70)},
		// A grandchild inside span 3, and one sticking out of it.
		{ID: 5, Parent: 3, Op: 1, Name: "inner", Start: at(25), End: at(35)},
		{ID: 6, Parent: 3, Op: 1, Name: "inner", Start: at(45), End: at(55)},
	}
	lt := selfTimes(spans)
	want := map[string]time.Duration{
		"op":      50 * time.Millisecond, // 100 - [10,50) - [60,70)
		"layer":   30*time.Millisecond + 15*time.Millisecond,
		"layer|a": 30 * time.Millisecond,
		"layer|b": 15 * time.Millisecond, // 30 - 10 - 5 (clipped at 50)
		"other":   10 * time.Millisecond,
		"inner":   20 * time.Millisecond,
	}
	for k, w := range want {
		if got := lt[k].self; got != w {
			t.Errorf("self time of %s = %v, want %v", k, got, w)
		}
	}
	if n := lt["layer"].n; n != 2 {
		t.Errorf("layer count = %d, want 2", n)
	}
	if got := lt["layer"].meanWall(); got != 30*time.Millisecond {
		t.Errorf("layer mean duration = %v, want 30ms", got)
	}
}

func TestPhaseWindows(t *testing.T) {
	ph := phase{windows: []window{
		{dur: time.Second, cpu: 30 * time.Millisecond, ops: 3, work: 20, latMs: []float64{1, 2, 3}, speed: 1, peakHeap: 1 << 20},
		{dur: 2 * time.Second, cpu: 90 * time.Millisecond, ops: 3, work: 40, latMs: []float64{4, 8, 12}, speed: 0.5, peakHeap: 3 << 20},
		{dur: time.Second, cpu: 60 * time.Millisecond, ops: 3, work: 60, latMs: []float64{10, 20, 30}, speed: 1, peakHeap: 2 << 20},
		// A window whose ops all failed counts for nothing.
		{dur: time.Second, cpu: 10 * time.Millisecond, ops: 1, speed: 1, peakHeap: 9 << 20},
	}}
	// Scaled throughputs 20, 40 (20 per second at half speed), 60.
	if got := ph.workPerS(); got != 40 {
		t.Errorf("workPerS = %v, want 40", got)
	}
	// Scaled medians 2, 4 (8 at half speed), 20.
	if got := ph.latency(0.5); got != 4 {
		t.Errorf("latency(0.5) = %v, want 4", got)
	}
	// Scaled CPU per op 10, 15, 20 ms.
	if got := ph.cpuPerOp(); math.Abs(got-15) > 1e-9 {
		t.Errorf("cpuPerOp = %v, want 15", got)
	}
	// Window peaks 1, 3, 2 MiB; the heap is not scaled.
	if got := ph.endToEnd()["peak_heap_mb"].Value; got != 2 {
		t.Errorf("peak_heap_mb = %v, want 2", got)
	}
}

func TestCalibrator(t *testing.T) {
	c, err := newCalibrator(1)
	if err != nil {
		t.Fatal(err)
	}
	l := c.lanes[0]
	var used int
	for _, v := range l.table {
		if v != 0 {
			used++
		}
	}
	if used != tableKeys {
		t.Errorf("the table holds %d keys, want %d", used, tableKeys)
	}
	if s := c.speed(); !(s > 0) {
		t.Errorf("speed = %v, want a positive number", s)
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a\nb"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, m := range []map[string]string{endToEndUnits, layerUnits} {
		for name := range m {
			if !validName(name) {
				t.Errorf("metric name %q is not valid", name)
			}
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(what string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want map[string]string) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if len(got) != len(listed) {
			t.Errorf("%s lists a metric twice", what)
		}
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s: %s has unit %q, the program prints %q", what, name, got[name], unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s lists %s, which the program does not print", what, name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndUnits)
	check("per_layer", bf.PerLayer, layerUnits)

	var listed, programs []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		programs = append(programs, w.name)
	}
	sort.Strings(listed)
	sort.Strings(programs)
	if len(listed) != len(programs) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program runs %v", listed, programs)
	}
	for i := range listed {
		if listed[i] != programs[i] {
			t.Fatalf("BENCHMARK.json lists workloads %v, the program runs %v", listed, programs)
		}
	}
}
