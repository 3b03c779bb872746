package tdg_test

import (
	"fmt"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/zoo"
)

// BenchmarkComputeInstant/nodesN/interpreted times the test-only
// interpreter (Program.NewInterpreter) on the padded didactic graphs of
// Fig. 5: the pre-compilation baseline. The root package's
// BenchmarkComputeInstant/nodesN times the compiled evaluator on the
// same graphs, so
//
//	go test -run '^$' -bench ComputeInstant . ./internal/tdg/
//
// prints the interpreted and compiled cost of one ComputeInstant side by
// side.
func BenchmarkComputeInstant(b *testing.B) {
	for _, nodes := range []int{10, 100, 1000, 3000} {
		dres, err := derive.Derive(
			zoo.Didactic(zoo.DidacticSpec{Tokens: 1, Period: 100, Seed: 1}),
			derive.Options{PadNodes: nodes - 7})
		if err != nil {
			b.Fatal(err)
		}
		ev := dres.Program().NewInterpreter()
		b.Run(fmt.Sprintf("nodes%d/interpreted", nodes), func(b *testing.B) {
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
