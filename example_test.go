package dyncomp_test

import (
	"context"
	"fmt"
	"strings"

	"dyncomp"
)

// buildExample describes a two-stage pipeline with data-dependent
// execution durations.
func buildExample() *dyncomp.Architecture {
	a := dyncomp.NewArchitecture("example")
	in := a.AddChannel("in", dyncomp.Rendezvous, 0)
	mid := a.AddChannel("mid", dyncomp.Rendezvous, 0)
	out := a.AddChannel("out", dyncomp.Rendezvous, 0)
	f1 := a.AddFunction("decode",
		dyncomp.Read{Ch: in},
		dyncomp.Exec{Label: "Tdec", Cost: dyncomp.OpsPerByte(100, 2)},
		dyncomp.Write{Ch: mid})
	f2 := a.AddFunction("render",
		dyncomp.Read{Ch: mid},
		dyncomp.Exec{Label: "Trnd", Cost: dyncomp.OpsPerByte(200, 1)},
		dyncomp.Write{Ch: out})
	a.Map(a.AddProcessor("CPU0", 1e9), f1)
	a.Map(a.AddProcessor("CPU1", 1e9), f2)
	a.AddSource("camera", in, dyncomp.Periodic(1000, 0), func(k int) dyncomp.Token {
		return dyncomp.Token{Size: int64(100 + 10*(k%4))}
	}, 1000)
	a.AddSink("display", out)
	return a
}

// The full workflow: simulate event-by-event, simulate via the equivalent
// model, and verify bit-exact agreement.
func Example() {
	ref, err := dyncomp.Run(context.Background(), "reference", buildExample(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		panic(err)
	}
	eq, err := dyncomp.Run(context.Background(), "equivalent", buildExample(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("exact:", dyncomp.CompareTraces(ref.Trace, eq.Trace) == nil)
	fmt.Println("events saved:", eq.Activations < ref.Activations)
	// Output:
	// exact: true
	// events saved: true
}

// Resource usage is observed from the computed instants without the
// simulator (the paper's observation time).
func Example_observation() {
	eq, err := dyncomp.Run(context.Background(), "equivalent", buildExample(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		panic(err)
	}
	end := dyncomp.Time(eq.FinalTimeNs)
	util := eq.Trace.Utilization("CPU1", 0, end)
	fmt.Println("CPU1 busy more than 20%:", util > 0.2)
	// Output:
	// CPU1 busy more than 20%: true
}

// Design-space exploration: a grid of parameter points (source period ×
// payload size) evaluated concurrently with the default adaptive engine.
// All points share one structural shape, so the temporal dependency
// graph is derived exactly once and re-bound per point; every per-point
// result is bit-identical to what an individual Run of the adaptive
// engine (or of any other engine) would return.
func ExampleSweep() {
	axes := []dyncomp.SweepAxis{
		{Name: "period", Values: []int64{800, 1000, 1200}},
		{Name: "size", Values: []int64{64, 128}},
	}
	gen := func(p dyncomp.SweepPoint) (*dyncomp.Architecture, error) {
		a := dyncomp.NewArchitecture("example")
		in := a.AddChannel("in", dyncomp.Rendezvous, 0)
		out := a.AddChannel("out", dyncomp.Rendezvous, 0)
		f := a.AddFunction("decode",
			dyncomp.Read{Ch: in},
			dyncomp.Exec{Label: "Tdec", Cost: dyncomp.OpsPerByte(100, 2)},
			dyncomp.Write{Ch: out})
		a.Map(a.AddProcessor("CPU0", 1e9), f)
		size := p.Get("size", 64)
		a.AddSource("camera", in, dyncomp.Periodic(dyncomp.Time(p.Get("period", 1000)), 0),
			func(k int) dyncomp.Token { return dyncomp.Token{Size: size} }, 100)
		a.AddSink("display", out)
		return a, nil
	}
	res, err := dyncomp.Sweep(axes, gen, dyncomp.SweepOptions{Workers: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println("points:", res.Stats.Points)
	fmt.Println("derivations:", res.Stats.DeriveCalls)
	fmt.Println("cache hits:", res.Stats.CacheHits)
	// The fastest period finishes first; results are in grid order.
	fmt.Println("first point:", res.Points[0].Point, "finished at", res.Points[0].FinalTimeNs, "ns")
	// Output:
	// points: 6
	// derivations: 1
	// cache hits: 5
	// first point: period=800,size=64 finished at 79428 ns
}

// Kernel-free computation: the adaptive engine computes every evolution
// instant from the (max,+) graph, boundary included, with no simulation
// kernel. Here the payload size shifts once mid-stream; the trace stays
// bit-exact across the shift at zero kernel events.
func ExampleRun_adaptive() {
	build := func() *dyncomp.Architecture {
		a := dyncomp.NewArchitecture("phased")
		in := a.AddChannel("in", dyncomp.Rendezvous, 0)
		out := a.AddChannel("out", dyncomp.Rendezvous, 0)
		f := a.AddFunction("decode",
			dyncomp.Read{Ch: in},
			dyncomp.Exec{Label: "Tdec", Cost: dyncomp.OpsPerByte(100, 2)},
			dyncomp.Write{Ch: out})
		a.Map(a.AddProcessor("CPU0", 1e9), f)
		a.AddSource("camera", in, dyncomp.Periodic(1000, 0), func(k int) dyncomp.Token {
			if k < 500 { // two steady phases: the size regime shifts once
				return dyncomp.Token{Size: 100}
			}
			return dyncomp.Token{Size: 200}
		}, 1000)
		a.AddSink("display", out)
		return a
	}
	ctx := context.Background()
	ref, err := dyncomp.Run(ctx, "reference", build(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		panic(err)
	}
	ad, err := dyncomp.Run(ctx, "adaptive", build(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("exact:", dyncomp.CompareTraces(ref.Trace, ad.Trace) == nil)
	fmt.Println("kernel events:", ad.Events, "activations:", ad.Activations)
	fmt.Println("same final time:", ad.FinalTimeNs == ref.FinalTimeNs)
	// Output:
	// exact: true
	// kernel events: 0 activations: 0
	// same final time: true
}

// Partial abstraction: only the decode stage is replaced by an equivalent
// model; the render stage stays event-driven.
func ExampleRun_hybrid() {
	ref, err := dyncomp.Run(context.Background(), "reference", buildExample(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		panic(err)
	}
	hyb, err := dyncomp.Run(context.Background(), "hybrid", buildExample(), dyncomp.EngineOptions{
		Record:        true,
		AbstractGroup: []string{"decode"},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("exact:", dyncomp.CompareTraces(ref.Trace, hyb.Trace) == nil)
	// Output:
	// exact: true
}

// Engines are addressed by registered name through one uniform entry
// point, which works for every engine the registry knows, present or
// future.
func ExampleRun() {
	ctx := context.Background()
	ref, err := dyncomp.Run(ctx, "reference", buildExample(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		panic(err)
	}
	eq, err := dyncomp.Run(ctx, "equivalent", buildExample(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("exact:", dyncomp.CompareTraces(ref.Trace, eq.Trace) == nil)
	fmt.Println("events saved:", eq.Activations < ref.Activations)
	// Output:
	// exact: true
	// events saved: true
}

// The registry lists every executor; any listed name is valid for Run,
// SweepOptions.EngineName and the CLIs' -engine flags.
func ExampleEngines() {
	fmt.Println(strings.Join(dyncomp.Engines(), " "))
	// Output:
	// adaptive equivalent hybrid reference
}

// A shared cache derives the temporal dependency graph once per
// structural shape: three runs differing only in the source period pay
// one symbolic execution — the mechanism the sweep engine and the
// dyncomp-serve HTTP layer use across requests.
func ExampleNewCache() {
	build := func(period dyncomp.Time) *dyncomp.Architecture {
		a := dyncomp.NewArchitecture("example")
		in := a.AddChannel("in", dyncomp.Rendezvous, 0)
		out := a.AddChannel("out", dyncomp.Rendezvous, 0)
		f := a.AddFunction("decode",
			dyncomp.Read{Ch: in},
			dyncomp.Exec{Label: "Tdec", Cost: dyncomp.OpsPerByte(100, 2)},
			dyncomp.Write{Ch: out})
		a.Map(a.AddProcessor("CPU0", 1e9), f)
		a.AddSource("camera", in, dyncomp.Periodic(period, 0),
			func(k int) dyncomp.Token { return dyncomp.Token{Size: 64} }, 100)
		a.AddSink("display", out)
		return a
	}
	cache := dyncomp.NewCache()
	ctx := context.Background()
	for _, period := range []dyncomp.Time{800, 1000, 1200} {
		if _, err := dyncomp.Run(ctx, "equivalent", build(period), dyncomp.EngineOptions{Cache: cache}); err != nil {
			panic(err)
		}
	}
	hits, misses := cache.Stats()
	fmt.Println("derivations:", misses, "rebinds:", hits)
	// Output:
	// derivations: 1 rebinds: 2
}
