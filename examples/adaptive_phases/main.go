// Adaptive engine-switching on a phase-changing workload: the didactic
// architecture processes a token stream whose size regime moves between
// steady plateaus and noisy transients. The adaptive executor simulates
// event-by-event until it confirms a steady state, hot-switches the
// steady region to the equivalent (max,+) model, and falls back to
// event-driven execution at every reconfiguration — producing the exact
// reference trace while paying kernel events only where the workload
// actually changes.
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

	ref, err := dyncomp.Run(ctx, "reference", build(), dyncomp.EngineOptions{Record: true})
	check(err)
	ad, err := dyncomp.RunAdaptive(build(), dyncomp.AdaptiveOptions{Record: true})
	check(err)

	fmt.Printf("bit-exact vs reference: %t\n", dyncomp.CompareTraces(ref.Trace, ad.Trace) == nil)
	fmt.Printf("kernel events: reference %d, adaptive %d (%.1f%% saved)\n",
		ref.Events, ad.Events, 100*(1-float64(ad.Events)/float64(ref.Events)))
	fmt.Printf("switches: %d, fallbacks: %d; iterations: %d detailed / %d abstract\n\n",
		ad.Switches, ad.Fallbacks, ad.DetailedIterations, ad.AbstractIterations)

	fmt.Printf("%-10s %10s %10s %12s\n", "mode", "from k", "to k", "events")
	for _, ph := range ad.Phases {
		fmt.Printf("%-10s %10d %10d %12d\n", ph.Mode, ph.StartK, ph.EndK, ph.Events)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
