package core

import (
	"context"
	"sync"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/hybrid"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// One derived Result is immutable: two Computes and two equivalent runs
// on it at once agree with a lone run, and so do two hybrid runs of a
// partial group sharing one cached derivation of the group. Under -race
// this also shows that no evaluation writes state the Results share,
// and that the pooled boundary engine, which equivalent and hybrid runs
// reach from any goroutine, is never shared by two runs.
func TestSharedResultConcurrentRuns(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 300, Period: 900, Seed: 9}
	res, err := derive.Derive(zoo.DidacticChain(2, spec), derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Compute(context.Background(), Options{Trace: observe.NewTrace("alone")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs := []func(*observe.Trace) (*Result, error){
		func(tr *observe.Trace) (*Result, error) {
			return m.Compute(context.Background(), Options{Trace: tr}, nil)
		},
		func(tr *observe.Trace) (*Result, error) {
			return m.Compute(context.Background(), Options{Trace: tr}, nil)
		},
		func(tr *observe.Trace) (*Result, error) { return m.Run(Options{Trace: tr}) },
		func(tr *observe.Trace) (*Result, error) { return m.Run(Options{Trace: tr}) },
	}
	cache := derive.NewCache()
	for range 2 {
		runs = append(runs, func(tr *observe.Trace) (*Result, error) {
			r, err := hybrid.Run(zoo.DidacticChain(2, spec), hybrid.Options{
				Group: []string{"F3_2", "F4_2"},
				Trace: tr,
				Cache: cache,
			})
			if err != nil {
				return nil, err
			}
			return &Result{Stats: r.Stats, Trace: r.Trace, Iterations: r.Iterations}, nil
		})
	}
	got := make([]*Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(observe.NewTrace("shared"))
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if err := observe.CompareInstants(want.Trace, got[i].Trace); err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}
