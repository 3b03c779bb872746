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

// BenchmarkEquivalentRun times the equivalent model, untraced, with
// derivation paid per run, on the architectures the benchmark workloads
// run it on: engine_runs' didactic and four-stage chain at 2000 tokens,
// fleet_sweep's didactic points (one and two stages, 500 tokens) and
// http_mixed's pipelines (4 stages at 40 tokens, 7 at 80).
func BenchmarkEquivalentRun(b *testing.B) {
	eng, err := engine.Lookup("equivalent")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		scenario string
		params   zoo.ParamMap
	}{
		{"didactic", "didactic", zoo.ParamMap{"tokens": 2000, "seed": 1}},
		{"chain-4", "chain", zoo.ParamMap{"stages": 4, "tokens": 2000, "seed": 1}},
		{"didactic-s2", "didactic", zoo.ParamMap{"stages": 2, "tokens": 500, "seed": 3}},
		{"didactic-s1", "didactic", zoo.ParamMap{"stages": 1, "tokens": 500, "seed": 3}},
		{"pipeline-4", "pipeline", zoo.ParamMap{"xsize": 4, "tokens": 40, "seed": 1}},
		{"pipeline-7", "pipeline", zoo.ParamMap{"xsize": 7, "tokens": 80, "seed": 1}},
	} {
		sc, err := zoo.LookupScenario(tc.scenario)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				a := sc.Build(tc.params)
				b.StartTimer()
				if _, err := eng.Run(context.Background(), a, engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
