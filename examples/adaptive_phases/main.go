// Kernel-free computation on a phase-changing workload: the didactic
// architecture processes a token stream whose size regime moves between
// steady plateaus and noisy transients. The adaptive engine computes
// every evolution instant from the (max,+) temporal dependency graph,
// boundary included, without a simulation kernel — producing the exact
// reference trace across plateaus and transients alike at zero kernel
// events.
package main

import (
	"context"
	"fmt"
	"os"

	"dyncomp"
	"dyncomp/internal/zoo"
)

func main() {
	ctx := context.Background()
	build := func() *dyncomp.Architecture {
		return zoo.Phased(zoo.PhasedSpec{Tokens: 2000, Period: 1100, Seed: 7})
	}

	fmt.Printf("%-12s %12s %12s %16s %10s\n", "engine", "events", "activations", "final (ns)", "wall (ms)")
	var ref *dyncomp.EngineResult
	for _, name := range []string{"reference", "equivalent", "adaptive"} {
		r, err := dyncomp.Run(ctx, name, build(), dyncomp.EngineOptions{Record: true})
		check(err)
		if ref == nil {
			ref = r
		} else if err := dyncomp.CompareTraces(ref.Trace, r.Trace); err != nil {
			check(fmt.Errorf("%s differs from reference: %w", name, err))
		}
		fmt.Printf("%-12s %12d %12d %16d %10.2f\n", name, r.Events, r.Activations, r.FinalTimeNs, float64(r.WallNs)/1e6)
	}
	fmt.Println("\nall traces bit-exact vs reference")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
