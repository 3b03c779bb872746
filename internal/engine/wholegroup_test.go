package engine_test

import (
	"context"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/zoo"
)

// Hybrid with every function in its group is the equivalent model: on
// every registered scenario it runs on the architecture's own
// derivation, so it gives equivalent's trace, events and activations,
// and a derivation cache shared by both holds one entry for the shape.
func TestWholeGroupHybridIsEquivalent(t *testing.T) {
	ctx := context.Background()
	equiv, err := engine.Lookup("equivalent")
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := engine.Lookup("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range zoo.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			a := sc.Build(testParams)
			var group []string
			for _, f := range a.Functions {
				group = append(group, f.Name)
			}
			cache := derive.NewCache()
			er, err := equiv.Run(ctx, a, engine.Options{Record: true, Cache: cache})
			if err != nil {
				t.Fatalf("equivalent: %v", err)
			}
			hr, err := hyb.Run(ctx, sc.Build(testParams), engine.Options{Record: true, Cache: cache, AbstractGroup: group})
			if err != nil {
				t.Fatalf("hybrid: %v", err)
			}
			if err := compareLane(er, hr); err != nil {
				t.Errorf("whole-group hybrid differs from equivalent: %v", err)
			}
			if hr.Events != er.Events || hr.Activations != er.Activations {
				t.Errorf("whole-group hybrid: %d events, %d activations; equivalent %d, %d",
					hr.Events, hr.Activations, er.Events, er.Activations)
			}
			if hits, misses := cache.Stats(); cache.Shapes() != 1 || misses != 1 || hits != 1 {
				t.Errorf("cache holds %d shapes after %d misses and %d hits, want 1 shape, 1 miss, 1 hit",
					cache.Shapes(), misses, hits)
			}
		})
	}
}
