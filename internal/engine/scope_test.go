package engine_test

import (
	"context"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
)

// fanoutArch has two outputs read by sinks, and its writer executes
// after each boundary write: W reads I, executes Ta, writes O1,
// executes Tb, writes the FIFO O2 and ends on Tc. So instants of W's
// iteration k (Tb's start, O2, W's end) depend on the output O1 of
// the same iteration, and the next iteration's reception waits for W's
// end.
func fanoutArch(period maxplus.T, count int) *model.Architecture {
	a := model.NewArchitecture("fanout")
	in := a.AddChannel("I", model.Rendezvous, 0)
	o1 := a.AddChannel("O1", model.Rendezvous, 0)
	o2 := a.AddChannel("O2", model.FIFO, 2)
	cost := model.OpsPerByte(40, 2)
	w := a.AddFunction("W",
		model.Read{Ch: in},
		model.Exec{Label: "Ta", Cost: cost},
		model.Write{Ch: o1},
		model.Exec{Label: "Tb", Cost: cost},
		model.Write{Ch: o2},
		model.Exec{Label: "Tc", Cost: model.FixedOps(300)},
	)
	a.Map(a.AddProcessor("P", 1e9), w)
	tok := func(k int) model.Token { return model.Token{Size: int64(10 + 7*(k%9))} }
	a.AddSource("S", in, model.Periodic(period, 0), tok, count)
	a.AddSink("K1", o1)
	a.AddSink("K2", o2)
	return a
}

// relayArch feeds a simulated reader from a writer that executes after
// its write: W reads I, executes Ta, writes M, executes Tb; R reads M,
// executes the slow Tr and writes O to a sink. Abstracting W alone
// makes M an output read by a simulated function, with W's end a
// same-iteration dependent of M's transfer, which R's pace delays.
func relayArch(period maxplus.T, count int) *model.Architecture {
	a := model.NewArchitecture("relay")
	in := a.AddChannel("I", model.Rendezvous, 0)
	m := a.AddChannel("M", model.Rendezvous, 0)
	out := a.AddChannel("O", model.Rendezvous, 0)
	w := a.AddFunction("W",
		model.Read{Ch: in},
		model.Exec{Label: "Ta", Cost: model.OpsPerByte(20, 1)},
		model.Write{Ch: m},
		model.Exec{Label: "Tb", Cost: model.FixedOps(150)},
	)
	r := a.AddFunction("R",
		model.Read{Ch: m},
		model.Exec{Label: "Tr", Cost: model.OpsPerByte(60, 3)},
		model.Write{Ch: out},
	)
	a.Map(a.AddProcessor("P1", 1e9), w)
	a.Map(a.AddProcessor("P2", 1e9), r)
	tok := func(k int) model.Token { return model.Token{Size: int64(20 + 11*(k%5))} }
	a.AddSource("S", in, model.Periodic(period, 0), tok, count)
	a.AddSink("K", out)
	return a
}

// The equivalent model and hybrid take any number of sink-read
// outputs and instants that depend on an output write in the same
// iteration: a sink never blocks, so the output is final when
// computed. Hybrid also takes a same-iteration dependent of an output
// read by a simulated function: it waits for the confirmed transfer.
// Every engine, and hybrid abstracting every function or the relay's
// writer alone, matches the reference executor bit for bit, without a
// limit, under LimitNs and under IterLimit.
func TestOutputScopeBitExact(t *testing.T) {
	ctx := context.Background()
	ref, err := engine.Lookup("reference")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		build func() *model.Architecture
		group []string
	}{
		{"fanout-eager", func() *model.Architecture { return fanoutArch(0, 60) }, []string{"W"}},
		{"fanout-periodic", func() *model.Architecture { return fanoutArch(900, 60) }, []string{"W"}},
		{"relay-writer", func() *model.Architecture { return relayArch(200, 60) }, []string{"W"}},
		{"relay-all", func() *model.Architecture { return relayArch(200, 60) }, []string{"W", "R"}},
	}
	for _, tc := range cases {
		full, err := ref.Run(ctx, tc.build(), engine.Options{})
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		for _, lim := range []struct {
			name string
			opts engine.Options
		}{
			{"unlimited", engine.Options{}},
			{"half-time", engine.Options{LimitNs: full.FinalTimeNs / 2}},
			{"half-iterations", engine.Options{IterLimit: 30}},
		} {
			opts := lim.opts
			opts.Record = true
			want, err := ref.Run(ctx, tc.build(), opts)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", tc.name, lim.name, err)
			}
			for _, name := range engine.Names() {
				if name == "reference" {
					continue
				}
				eng, err := engine.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				o := opts
				o.AbstractGroup = tc.group
				got, err := eng.Run(ctx, tc.build(), o)
				if err != nil {
					t.Errorf("%s %s: %s: %v", tc.name, lim.name, name, err)
					continue
				}
				if err := compareRuns(want, got); err != nil {
					t.Errorf("%s %s: %s differs from reference: %v", tc.name, lim.name, name, err)
				}
			}
		}
	}
}
