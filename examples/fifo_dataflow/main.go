// FIFO dataflow example: the paper notes that FIFO communication needs
// additional evolution instants (a write instant and a read instant per
// channel). This example builds a producer/consumer pipeline over bounded
// FIFOs, runs both engines, and shows how buffering decouples the stages
// while capacity backpressure still bounds the run-ahead — all captured
// exactly by the equivalent model.
//
//	go run ./examples/fifo_dataflow
package main

import (
	"context"
	"fmt"
	"log"

	"dyncomp"
)

func main() {
	ctx := context.Background()
	build := func(capacity int) *dyncomp.Architecture {
		a := dyncomp.NewArchitecture("fifo-dataflow")
		in := a.AddChannel("in", dyncomp.FIFO, capacity)
		mid := a.AddChannel("mid", dyncomp.FIFO, capacity)
		out := a.AddChannel("out", dyncomp.FIFO, capacity)

		// A fast producer stage and a slow consumer stage: the FIFO
		// absorbs bursts until backpressure kicks in.
		prod := a.AddFunction("producer",
			dyncomp.Read{Ch: in},
			dyncomp.Exec{Label: "Tprod", Cost: dyncomp.FixedOps(200)},
			dyncomp.Write{Ch: mid},
		)
		cons := a.AddFunction("consumer",
			dyncomp.Read{Ch: mid},
			dyncomp.Exec{Label: "Tcons", Cost: dyncomp.OpsPerByte(600, 3)},
			dyncomp.Write{Ch: out},
		)
		a.Map(a.AddProcessor("P0", 1e9), prod)
		a.Map(a.AddProcessor("P1", 1e9), cons)
		a.AddSource("gen", in, dyncomp.Periodic(400, 0), func(k int) dyncomp.Token {
			return dyncomp.Token{Size: int64(50 + (k*13)%100)}
		}, 5000)
		a.AddSink("env", out)
		return a
	}

	for _, capacity := range []int{1, 4, 16} {
		ref, err := dyncomp.Run(ctx, "reference", build(capacity), dyncomp.EngineOptions{Record: true})
		if err != nil {
			log.Fatal(err)
		}
		eq, err := dyncomp.Run(ctx, "equivalent", build(capacity), dyncomp.EngineOptions{Record: true})
		if err != nil {
			log.Fatal(err)
		}
		if err := dyncomp.CompareTraces(ref.Trace, eq.Trace); err != nil {
			log.Fatalf("capacity %d: accuracy violated: %v", capacity, err)
		}
		// With deeper FIFOs the producer runs further ahead of the
		// consumer: measure the k-th write-to-read lag on "mid".
		w := ref.Trace.Instants("mid.w")
		r := ref.Trace.Instants("mid.r")
		var lag float64
		for k := range w {
			lag += float64(r[k] - w[k])
		}
		lag /= float64(len(w))
		fmt.Printf("capacity %2d: exact ✓  event ratio %.2f  makespan %d ns  mean write→read lag %.0f ns\n",
			capacity, float64(ref.Activations)/float64(eq.Activations), ref.FinalTimeNs, lag)
	}
}
