// Pipeline scaling example: reproduces the trend of the paper's Table I —
// the more architecture processes the equivalent model abstracts, the
// more simulation events it saves, and the speed-up tracks the event
// ratio. Runs chains of 1..4 didactic stages and prints measured event
// ratios and wall-clock speed-ups.
//
//	go run ./examples/pipeline_scaling
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dyncomp"
	"dyncomp/internal/zoo"
)

func main() {
	ctx := context.Background()
	const tokens = 5000
	fmt.Printf("%-8s %-8s %-12s %-12s %-10s\n", "stages", "nodes", "event ratio", "speed-up", "baseline")
	for stages := 1; stages <= 4; stages++ {
		spec := zoo.DidacticSpec{Tokens: tokens, Period: 1200, Seed: 41}

		start := time.Now()
		ref, err := dyncomp.Run(ctx, "reference", zoo.DidacticChain(stages, spec), dyncomp.EngineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		refWall := time.Since(start)

		start = time.Now()
		eq, err := dyncomp.Run(ctx, "equivalent", zoo.DidacticChain(stages, spec), dyncomp.EngineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		eqWall := time.Since(start)

		fmt.Printf("%-8d %-8d %-12.2f %-12.2f %v\n",
			stages, eq.GraphNodes,
			float64(ref.Activations)/float64(eq.Activations),
			refWall.Seconds()/eqWall.Seconds(),
			refWall.Round(time.Millisecond))
	}
}
