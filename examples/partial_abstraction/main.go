// Partial abstraction example: the paper's general formulation — "the
// proposed method allows some of the architecture processes to be
// combined into a single equivalent executable model". Here the LTE
// receiver's seven DSP functions are abstracted while the hardware turbo
// decoder stays event-driven; the decoder's backpressure flows into the
// abstracted group through the confirmed boundary transfers, and the
// result remains bit-exact against the fully simulated model.
//
//	go run ./examples/partial_abstraction
package main

import (
	"context"
	"fmt"
	"log"

	"dyncomp"
	"dyncomp/internal/lte"
)

func main() {
	ctx := context.Background()
	const frames = 20
	symbols := frames * lte.SymbolsPerFrame
	build := func() *dyncomp.Architecture {
		return lte.Receiver(lte.Spec{Symbols: symbols, Seed: 23})
	}

	full, err := dyncomp.Run(ctx, "reference", build(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		log.Fatal(err)
	}
	hybrid, err := dyncomp.Run(ctx, "hybrid", build(), dyncomp.EngineOptions{Record: true, AbstractGroup: lte.FunctionNames[:7]})
	if err != nil {
		log.Fatal(err)
	}
	equivalent, err := dyncomp.Run(ctx, "equivalent", build(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		log.Fatal(err)
	}

	if err := dyncomp.CompareTraces(full.Trace, hybrid.Trace); err != nil {
		log.Fatalf("hybrid accuracy violated: %v", err)
	}
	if err := dyncomp.CompareTraces(full.Trace, equivalent.Trace); err != nil {
		log.Fatalf("equivalent accuracy violated: %v", err)
	}

	fmt.Printf("LTE receiver, %d symbols — all three models agree bit-exact\n\n", symbols)
	fmt.Printf("%-34s %12s %10s\n", "model", "activations", "saving")
	fmt.Printf("%-34s %12d %10s\n", "fully simulated", full.Activations, "-")
	fmt.Printf("%-34s %12d %9.2fx\n", "DSP cluster abstracted (hybrid)", hybrid.Activations,
		float64(full.Activations)/float64(hybrid.Activations))
	fmt.Printf("%-34s %12d %9.2fx\n", "whole architecture abstracted", equivalent.Activations,
		float64(full.Activations)/float64(equivalent.Activations))
}
