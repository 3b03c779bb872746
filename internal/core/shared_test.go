package core

import (
	"context"
	"sync"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// One derived Result is immutable: two Computes and one equivalent run
// on it at once agree with a lone run. Under -race this also shows that
// no evaluation writes state the Result shares.
func TestSharedResultConcurrentRuns(t *testing.T) {
	res, err := derive.Derive(zoo.DidacticChain(2, zoo.DidacticSpec{Tokens: 300, Period: 900, Seed: 9}), derive.Options{})
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
