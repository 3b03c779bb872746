package derive

import (
	"fmt"
	"testing"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/zoo"
)

// The row holds durations only: RowWidth is the plan's duration entries
// (its columns, then its folds), FillRow writes every one of them and
// nothing past them, and each column holds its statement's duration.
func TestRowHoldsDurationsOnly(t *testing.T) {
	// Two executions in a row weigh one arc with their fold.
	twoExecs := model.NewArchitecture("two-execs")
	in := twoExecs.AddChannel("In", model.Rendezvous, 0)
	out := twoExecs.AddChannel("Out", model.Rendezvous, 0)
	f := twoExecs.AddFunction("F", model.Read{Ch: in},
		model.Exec{Label: "Ta", Cost: model.OpsPerByte(3, 1.5)},
		model.Exec{Label: "Tb", Cost: model.FixedOps(70)}, model.Write{Ch: out})
	twoExecs.Map(twoExecs.AddProcessor("P", 2.7e9), f)
	twoExecs.AddSource("S", in, model.Periodic(100, 0), func(k int) model.Token { return model.Token{Size: int64(k)} }, 20)
	twoExecs.AddSink("K", out)
	archs := []*model.Architecture{twoExecs}
	for _, sc := range zoo.Scenarios() {
		archs = append(archs, sc.Build(zoo.ParamMap{"tokens": 20, "seed": 3}))
	}
	folds := 0
	for _, a := range archs {
		res, err := Derive(a, Options{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		p := res.plan
		if w := res.RowWidth(); w != len(p.cols)+len(p.folds) {
			t.Fatalf("%s: RowWidth %d, want %d columns + %d folds", a.Name, w, len(p.cols), len(p.folds))
		}
		folds += len(p.folds)
		const unset = maxplus.T(-7) // no duration is negative
		row := make([]maxplus.T, res.RowWidth()+8)
		for k := range 20 {
			for i := range row {
				row[i] = unset
			}
			if err := res.FillRow(k, row); err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			for i, v := range row {
				if written := v != unset; written != (i < res.RowWidth()) {
					t.Fatalf("%s, iteration %d: entry %d of %d is %v", a.Name, k, i, res.RowWidth(), v)
				}
			}
			for _, c := range p.cols {
				f := a.Functions[c.ref.fn]
				e, err := a.ExecInfoOf(f, c.ref.stmt)
				if err != nil {
					t.Fatal(err)
				}
				if d := e.Duration(k); row[c.entry] != d {
					t.Fatalf("%s, iteration %d: %s is %v, want %v", a.Name, k, c.label, row[c.entry], d)
				}
			}
		}
	}
	if folds == 0 {
		t.Fatal("no scenario has a fold")
	}
}

// A bind resolves each column once into the flat table: three
// allocations (the binding, its token functions and its columns),
// whatever the shape's size.
func TestBindAllocations(t *testing.T) {
	a := zoo.Pipeline(zoo.PipelineSpec{XSize: 60, Tokens: 10, Period: 600, Seed: 1})
	res, err := Derive(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { res.plan.bind(a) }); n != 3 {
		t.Fatalf("bind allocates %v times, want 3", n)
	}
}

// BenchmarkRowFill measures the row fill of a batched sweep: 16 bound
// lanes of one shape, each filling iteration k's row into the batch's
// lane-strided row block. It reports ns per lane row and allocations.
//
//	go test ./internal/derive -run '^$' -bench RowFill
func BenchmarkRowFill(b *testing.B) {
	const lanes, tokens = 16, 1000
	for _, sh := range []struct {
		name  string
		build func(l int) *model.Architecture
	}{
		{"didactic-s1", func(l int) *model.Architecture {
			return zoo.DidacticChain(1, zoo.DidacticSpec{Tokens: tokens, Period: maxplus.T(1200 + 20*(l%4)), Seed: int64(l + 1)})
		}},
		{"didactic-s2", func(l int) *model.Architecture {
			return zoo.DidacticChain(2, zoo.DidacticSpec{Tokens: tokens, Period: maxplus.T(1200 + 20*(l%4)), Seed: int64(l + 1)})
		}},
		{"chain4", func(l int) *model.Architecture {
			return zoo.DidacticChain(4, zoo.DidacticSpec{Tokens: tokens, Period: maxplus.T(1200 + 20*(l%4)), Seed: int64(l + 1)})
		}},
		{"pipeline60", func(l int) *model.Architecture {
			return zoo.Pipeline(zoo.PipelineSpec{XSize: 60, Tokens: tokens, Period: maxplus.T(600 + 10*(l%4)), Seed: int64(l + 1)})
		}},
	} {
		archs := make([]*model.Architecture, lanes)
		for l := range archs {
			archs[l] = sh.build(l)
		}
		base, err := Derive(archs[0], Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := RebindBatch(base, archs)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]maxplus.T, base.RowWidth()*lanes)
		b.Run(fmt.Sprintf("%s-%dcols", sh.name, len(base.plan.cols)), func(b *testing.B) {
			b.ReportAllocs()
			k := 0
			for b.Loop() {
				for l, r := range res {
					if err := r.in.Fill(k, rows[l:], lanes); err != nil {
						b.Fatal(err)
					}
				}
				k = (k + 1) % tokens
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/lane-row")
		})
	}
}
