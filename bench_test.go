package dyncomp

// Benchmark harness: one benchmark pair (event-driven baseline vs
// equivalent model) per table/figure of the paper.
//
//	go test -bench=. -benchmem
//
// Table I    -> BenchmarkTable1/exampleN/{baseline,equivalent}
// Fig. 5     -> BenchmarkFig5/xX/nodesN (plus xX/baseline as reference)
// Fig. 6 / case study -> BenchmarkCaseStudy/{baseline,equivalent}
// Kernel-free adaptive -> BenchmarkAdaptive/{baseline,equivalent,adaptive}
// TLM-LT motivation  -> BenchmarkQuantum/qQ
// ComputeInstant cost -> BenchmarkComputeInstant/nodesN (the interpreted
//                        baseline: internal/tdg, BenchmarkComputeInstant)
//
// The interesting output is the ratio of ns/op between baseline and
// equivalent benchmarks of the same workload: that is the paper's
// "simulation speed-up". EXPERIMENTS.md records the measured values.

import (
	"context"
	"fmt"
	"testing"

	"dyncomp/internal/baseline"
	"dyncomp/internal/core"
	"dyncomp/internal/derive"
	"dyncomp/internal/hybrid"
	"dyncomp/internal/ltdecoup"
	"dyncomp/internal/lte"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/sim"
	"dyncomp/internal/zoo"
)

const benchTokens = 1000

func benchBaseline(b *testing.B, build func() *model.Architecture) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := baseline.Run(build(), baseline.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Activations), "activations")
		}
	}
}

func benchEquivalent(b *testing.B, build func() *model.Architecture, opts derive.Options) {
	b.Helper()
	b.ReportAllocs()
	// Model generation precedes simulation (as in the paper); only the
	// simulation is timed.
	dres, err := derive.Derive(build(), opts)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(dres)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Run(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Activations), "activations")
		}
	}
}

// BenchmarkTable1 reproduces Table I: chained didactic architectures.
// Speed-up = ns/op(baseline) / ns/op(equivalent) per example.
func BenchmarkTable1(b *testing.B) {
	for stages := 1; stages <= 4; stages++ {
		build := func() *model.Architecture {
			return zoo.DidacticChain(stages, zoo.DidacticSpec{Tokens: benchTokens, Period: 1200, Seed: 41})
		}
		b.Run(fmt.Sprintf("example%d/baseline", stages), func(b *testing.B) {
			benchBaseline(b, build)
		})
		b.Run(fmt.Sprintf("example%d/equivalent", stages), func(b *testing.B) {
			benchEquivalent(b, build, derive.Options{})
		})
	}
}

// BenchmarkFig5 reproduces the Fig. 5 sweep: for each X size the
// equivalent model is run with the temporal dependency graph padded to
// growing node counts; the baseline reference gives the denominator.
func BenchmarkFig5(b *testing.B) {
	for _, x := range []int{6, 10, 20, 30} {
		spec := zoo.PipelineSpec{XSize: x, Tokens: benchTokens, Period: 600, Seed: 17}
		build := func() *model.Architecture { return zoo.Pipeline(spec) }
		b.Run(fmt.Sprintf("x%d/baseline", x), func(b *testing.B) {
			benchBaseline(b, build)
		})
		for _, nodes := range []int{10, 100, 1000, 3000} {
			base := zoo.Pipeline(spec)
			dres, err := derive.Derive(base, derive.Options{})
			if err != nil {
				b.Fatal(err)
			}
			pad := nodes - dres.Graph.NodeCount()
			if pad < 0 {
				pad = 0
			}
			opts := derive.Options{PadNodes: pad}
			b.Run(fmt.Sprintf("x%d/nodes%d", x, nodes), func(b *testing.B) {
				benchEquivalent(b, build, opts)
			})
		}
	}
}

// BenchmarkCaseStudy reproduces the Section V measurement (Fig. 6
// workload): the LTE receiver processing a stream of symbols. The paper
// reports a speed-up of 4 at an event ratio of 4.2 for 20000 symbols.
func BenchmarkCaseStudy(b *testing.B) {
	build := func() *model.Architecture {
		return lte.Receiver(lte.Spec{Symbols: benchTokens, Seed: 23})
	}
	b.Run("baseline", func(b *testing.B) {
		benchBaseline(b, build)
	})
	b.Run("equivalent", func(b *testing.B) {
		benchEquivalent(b, build, derive.Options{Reduce: true})
	})
	b.Run("equivalent-unreduced", func(b *testing.B) {
		benchEquivalent(b, build, derive.Options{})
	})
}

// BenchmarkHybrid measures partial abstraction on the LTE receiver: the
// DSP cluster abstracted, the hardware decoder still simulated. Compare
// with BenchmarkCaseStudy/baseline (nothing abstracted) and
// BenchmarkCaseStudy/equivalent (everything abstracted).
func BenchmarkHybrid(b *testing.B) {
	b.Run("lte-dsp-group", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := hybrid.Run(
				lte.Receiver(lte.Spec{Symbols: benchTokens, Seed: 23}),
				hybrid.Options{Group: lte.FunctionNames[:7]})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.Stats.Activations), "activations")
			}
		}
	})
}

// BenchmarkAdaptive measures the adaptive engine on the phase-changing
// didactic workload against the two static engines on the same stream.
// The adaptive engine computes every instant from the graph, boundary
// included, so its ns/op sits below the equivalent model's; the
// "events" metric shows the kernel work each engine pays (zero for
// adaptive). Its ns/op includes derivation, which the equivalent
// sub-benchmark leaves out.
func BenchmarkAdaptive(b *testing.B) {
	spec := zoo.PhasedSpec{Tokens: benchTokens, Period: 1100, Seed: 7}
	build := func() *model.Architecture { return zoo.Phased(spec) }
	b.Run("baseline", func(b *testing.B) {
		benchBaseline(b, build)
	})
	b.Run("equivalent", func(b *testing.B) {
		benchEquivalent(b, build, derive.Options{})
	})
	b.Run("adaptive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Run(context.Background(), "adaptive", build(), EngineOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.Events), "events")
			}
		}
	})
}

// BenchmarkQuantum measures the loosely-timed comparator the paper's
// introduction criticises: faster with larger quanta but inaccurate
// (compare with BenchmarkTable1/example1/equivalent, which is exact).
func BenchmarkQuantum(b *testing.B) {
	for _, q := range []sim.Time{1_000, 100_000} {
		b.Run(fmt.Sprintf("q%dns", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := ltdecoup.Run(
					zoo.Didactic(zoo.DidacticSpec{Tokens: benchTokens, Period: 900, Seed: 31}),
					ltdecoup.Options{Quantum: q})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComputeInstant isolates the cost of one ComputeInstant()
// action as a function of graph size — the knee position of Fig. 5 is
// where this cost catches up with the saved kernel events. The
// "nodesN" variants run the compiled evaluation program, the evaluator
// of every engine; internal/tdg's BenchmarkComputeInstant/nodesN/
// interpreted walks the graph's arc lists, the pre-compilation baseline.
func BenchmarkComputeInstant(b *testing.B) {
	for _, nodes := range []int{10, 100, 1000, 3000} {
		dres, err := derive.Derive(
			zoo.Didactic(zoo.DidacticSpec{Tokens: 1, Period: 100, Seed: 1}),
			derive.Options{PadNodes: nodes - 7})
		if err != nil {
			b.Fatal(err)
		}
		ev := dres.Program().NewEvaluator()
		b.Run(fmt.Sprintf("nodes%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			u := []maxplus.T{0}
			for i := 0; i < b.N; i++ {
				u[0] = maxplus.T(i * 100)
				if _, err := ev.Step(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep measures the design-space sweep engine on a 36-point
// parameter grid (period × seed) sharing one structural shape (a
// 3-stage didactic chain, derived with arc reduction as the paper's
// hand-minimal graphs are):
//
//   - naive: one equivalent-engine Run per point, re-deriving and re-reducing
//     the temporal dependency graph every time (36 derivations per
//     sweep);
//   - cached: dyncomp.Sweep of the equivalent engine with the
//     structure-keyed derive cache (1 derivation per sweep) on one
//     worker;
//   - cached-parallel: the same with one worker per processor.
//
// The naive/cached ns/op ratio is the derivation saving; the
// "derives/op" metric shows each strategy's Derive count.
func BenchmarkSweep(b *testing.B) {
	periods := []int64{600, 800, 1000, 1200, 1400, 1600}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	const sweepTokens = 20
	build := func(period, seed int64) *model.Architecture {
		return zoo.DidacticChain(3, zoo.DidacticSpec{
			Tokens: sweepTokens, Period: maxplus.T(period), Seed: seed})
	}
	axes := []SweepAxis{
		{Name: "period", Values: periods},
		{Name: "seed", Values: seeds},
	}
	gen := func(p SweepPoint) (*Architecture, error) {
		return build(p.Get("period", 1200), p.Get("seed", 1)), nil
	}

	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		before := derive.Calls()
		for i := 0; i < b.N; i++ {
			for _, period := range periods {
				for _, seed := range seeds {
					if _, err := Run(context.Background(), "equivalent", build(period, seed), EngineOptions{Reduce: true}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(derive.Calls()-before)/float64(b.N), "derives/op")
	})
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"cached", 1}, {"cached-parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			before := derive.Calls()
			for i := 0; i < b.N; i++ {
				res, err := Sweep(axes, gen, SweepOptions{Workers: cfg.workers, EngineName: "equivalent", Reduce: true})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Failed > 0 {
					b.Fatalf("%d points failed", res.Stats.Failed)
				}
			}
			b.ReportMetric(float64(derive.Calls()-before)/float64(b.N), "derives/op")
		})
	}
}

// BenchmarkKernelActivation measures the cost the method saves per event:
// one timed wait (a handler call, the analogue of a SystemC SC_METHOD
// activation, plus event-queue work).
func BenchmarkKernelActivation(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	n := 0
	k.Spawn("spinner", func(p *sim.Proc) {
		if n < b.N {
			n++
			p.After(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(sim.Forever); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMaxPlus measures the scalar algebra primitive underlying
// ComputeInstant; the matrix primitive of the recurrence form (7)-(10)
// is internal/maxplus's BenchmarkMaxPlus/matrix-apply-16.
func BenchmarkMaxPlus(b *testing.B) {
	b.Run("otimes", func(b *testing.B) {
		acc := maxplus.T(0)
		for i := 0; i < b.N; i++ {
			acc = maxplus.Otimes(acc, 1)
		}
		_ = acc
	})
}
