package engine_test

import (
	"context"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/zoo"
)

// BenchmarkHybridRun times hybrid against the reference executor it
// abstracts, untraced, on perfbench engine_runs' two architectures and
// groups (didactic, and a four-stage chain, at 2000 tokens); derivation
// is paid per run, as there. Profile hybrid's evaluation with
//
//	go test -run '^$' -bench 'BenchmarkHybridRun/.*/hybrid' -cpuprofile cpu.out ./internal/engine/
func BenchmarkHybridRun(b *testing.B) {
	for _, tc := range []struct {
		name     string
		scenario string
		params   zoo.ParamMap
	}{
		{"didactic", "didactic", zoo.ParamMap{"tokens": 2000, "seed": 1}},
		{"chain-4", "chain", zoo.ParamMap{"stages": 4, "tokens": 2000, "seed": 1}},
	} {
		sc, err := zoo.LookupScenario(tc.scenario)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"reference", "hybrid"} {
			eng, err := engine.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			opts := engine.Options{AbstractGroup: sc.GroupFor(name, tc.params)}
			b.Run(tc.name+"/"+name, func(b *testing.B) {
				var events int64
				for range b.N {
					b.StopTimer()
					a := sc.Build(tc.params)
					b.StartTimer()
					res, err := eng.Run(context.Background(), a, opts)
					if err != nil {
						b.Fatal(err)
					}
					events = res.Events
				}
				b.ReportMetric(float64(events), "events")
			})
		}
	}
}
