package engine_test

import (
	"context"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
)

// joinArch is a two-source architecture: J reads I1, executes Ta, reads
// I2, executes Tb and writes O. S2's period is a dynamics-only
// parameter, so every variant shares one shape.
func joinArch(p2 maxplus.T) *model.Architecture {
	a := model.NewArchitecture("join")
	i1 := a.AddChannel("I1", model.Rendezvous, 0)
	i2 := a.AddChannel("I2", model.Rendezvous, 0)
	out := a.AddChannel("O", model.Rendezvous, 0)
	cost := model.OpsPerByte(50, 1)
	j := a.AddFunction("J",
		model.Read{Ch: i1},
		model.Exec{Label: "Ta", Cost: cost},
		model.Read{Ch: i2},
		model.Exec{Label: "Tb", Cost: cost},
		model.Write{Ch: out},
	)
	a.Map(a.AddProcessor("P", 1e9), j)
	tok1 := func(k int) model.Token { return model.Token{Size: int64(16 + k%5)} }
	tok2 := func(k int) model.Token { return model.Token{Size: int64(200 + 37*(k%7))} }
	a.AddSource("S1", i1, model.Periodic(400, 0), tok1, 40)
	a.AddSource("S2", i2, model.Periodic(p2, 30), tok2, 40)
	a.AddSink("K", out)
	return a
}

// A time limit can fall between the arrivals of one iteration's two
// inputs. The activity that needs only the first arrival (Ta) then
// starts before the limit, and the reference executor records it.
// Every engine, hybrid abstracting J (its same-iteration gate) and
// every lane of a batched run, records exactly what the reference does.
func TestLimitNsSplitsMultiInputIteration(t *testing.T) {
	ctx := context.Background()
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	br := batchRunner(t)
	periods := []maxplus.T{500, 900, 1500}
	for _, limit := range []int64{1000, 2000, 3333, 5000, 7777, 10000} {
		opts := engine.Options{Record: true, LimitNs: limit}
		wants := make([]*engine.Result, len(periods))
		archs := make([]*model.Architecture, len(periods))
		for l, p2 := range periods {
			if wants[l], err = ref.Run(ctx, joinArch(p2), opts); err != nil {
				t.Fatal(err)
			}
			archs[l] = joinArch(p2)
			for _, name := range engine.Names() {
				if name == "reference" {
					continue
				}
				eng, err := engine.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				o := opts
				o.AbstractGroup = []string{"J"}
				got, err := eng.Run(ctx, joinArch(p2), o)
				if err != nil {
					t.Errorf("S2 period %d, limit %d: %s: %v", p2, limit, name, err)
					continue
				}
				if err := compareRuns(wants[l], got); err != nil {
					t.Errorf("S2 period %d, limit %d: %s differs from reference: %v", p2, limit, name, err)
				}
			}
		}
		lanes, laneErrs, err := br.RunBatch(ctx, archs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for l, lane := range lanes {
			if laneErrs[l] != nil {
				t.Errorf("limit %d: lane %d: %v", limit, l, laneErrs[l])
				continue
			}
			if err := compareRuns(wants[l], lane); err != nil {
				t.Errorf("S2 period %d, limit %d: batch lane %d differs from reference: %v", periods[l], limit, l, err)
			}
		}
	}
}
