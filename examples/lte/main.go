// LTE receiver example: the paper's Section V case study. Simulates the
// physical-layer receiver pipeline (7 DSP functions + a hardware turbo
// decoder) over several frames with varying transmission parameters and
// prints the Fig. 6-style observations: input/output instants over the
// simulation time and complexity-per-time-unit traces over the
// observation time.
//
//	go run ./examples/lte
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"dyncomp"
	"dyncomp/internal/lte"
)

func main() {
	ctx := context.Background()
	const frames = 3
	symbols := frames * lte.SymbolsPerFrame

	build := func() *dyncomp.Architecture {
		return lte.Receiver(lte.Spec{Symbols: symbols, Seed: 23})
	}

	ref, err := dyncomp.Run(ctx, "reference", build(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		log.Fatal(err)
	}
	eq, err := dyncomp.Run(ctx, "equivalent", build(), dyncomp.EngineOptions{Record: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := dyncomp.CompareTraces(ref.Trace, eq.Trace); err != nil {
		log.Fatalf("accuracy violated: %v", err)
	}

	fmt.Printf("LTE receiver, %d frames of %d symbols (period %d ns)\n", frames, lte.SymbolsPerFrame, int64(lte.SymbolPeriod))
	for f := 0; f < frames; f++ {
		nprb, qm, rate := lte.FrameParams(23, f)
		fmt.Printf("  frame %d: %3d PRB, %d bits/symbol, rate %.2f\n", f, nprb, qm, rate)
	}
	fmt.Printf("event ratio: %.2f (activations %d -> %d)\n\n",
		float64(ref.Activations)/float64(eq.Activations), ref.Activations, eq.Activations)

	// Fig. 6 (a): evolution over the simulation time.
	u := eq.Trace.Instants("Sym")
	y := eq.Trace.Instants("D8")
	fmt.Println("evolution over simulation time (first frame):")
	for k := 0; k < lte.SymbolsPerFrame; k++ {
		fmt.Printf("  u(%2d) = %7d ns   y(%2d) = %7d ns\n", k, int64(u[k]), k, int64(y[k]))
	}
	fmt.Println()

	// Fig. 6 (b)/(c): complexity per time unit on the observation time,
	// reconstructed from the computed instants.
	end := eq.Trace.EndTime()
	for _, r := range []string{"DSP", "HW"} {
		s, err := eq.Trace.ComplexitySeries(r, 0, end, 25_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s complexity (GOPS, 25 µs bins, peak %.1f):\n", r, s.Max())
		fmt.Println(sparkline(s.Values, s.Max()))
	}
}

// sparkline renders a crude ASCII profile of a series.
func sparkline(vals []float64, max float64) string {
	if max == 0 {
		return "(idle)"
	}
	levels := []rune(" .:-=+*#%@")
	var b strings.Builder
	b.WriteString("  ")
	for _, v := range vals {
		idx := int(v / max * float64(len(levels)-1))
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
