package derive

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

func TestShapeKeyIgnoresDynamics(t *testing.T) {
	a := zoo.Didactic(zoo.DidacticSpec{Tokens: 100, Period: 1200, Seed: 41})
	b := zoo.Didactic(zoo.DidacticSpec{Tokens: 7, Period: 0, Seed: 99})
	ka, err := ShapeKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := ShapeKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("shape keys differ for parameter-only changes:\n%s\nvs\n%s", ka, kb)
	}
}

func TestShapeKeySeparatesStructures(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 10, Period: 1200, Seed: 41}
	keys := map[string]string{}
	for name, a := range map[string]*model.Architecture{
		"didactic": zoo.Didactic(spec),
		"chain2":   zoo.DidacticChain(2, spec),
		"fifo":     zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 1200, Seed: 41, UseFIFO: true}),
		"pipeline": zoo.Pipeline(zoo.PipelineSpec{XSize: 4, Tokens: 10, Seed: 1}),
	} {
		k, err := ShapeKey(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for other, ok := range keys {
			if ok == k {
				t.Fatalf("structures %s and %s share a shape key", name, other)
			}
		}
		keys[name] = k
	}
}

// evalAll steps both evaluators through n iterations with identical
// inputs and requires every node instant to match exactly.
func evalAll(t *testing.T, want, got *Result, n int) {
	t.Helper()
	if want.Graph.NodeCount() != got.Graph.NodeCount() {
		t.Fatalf("node counts differ: %d vs %d", want.Graph.NodeCount(), got.Graph.NodeCount())
	}
	ew := want.Program().NewEvaluator()
	eg := got.Program().NewEvaluator()
	u := make([]maxplus.T, len(want.Inputs))
	vw := make([]maxplus.T, want.Graph.NodeCount())
	vg := make([]maxplus.T, got.Graph.NodeCount())
	for k := 0; k < n; k++ {
		for i, ib := range want.Inputs {
			u[i] = ib.Source.Schedule(k)
		}
		if _, err := ew.Step(u); err != nil {
			t.Fatal(err)
		}
		if _, err := eg.Step(u); err != nil {
			t.Fatal(err)
		}
		ew.ValuesInto(vw)
		eg.ValuesInto(vg)
		for id := range vw {
			if vw[id] != vg[id] {
				t.Fatalf("iteration %d node %s: want %v, got %v",
					k, want.Graph.Nodes()[id].Name, vw[id], vg[id])
			}
		}
	}
	// Activity reconstruction must agree as well.
	if len(want.plan.probes) != len(got.plan.probes) {
		t.Fatalf("probe counts differ: %d vs %d", len(want.plan.probes), len(got.plan.probes))
	}
	k := n - 1
	tw, tg := observe.NewTrace("want"), observe.NewTrace("got")
	rw, err := ew.Row(k)
	if err != nil {
		t.Fatal(err)
	}
	want.Record(tw, want.LabelledNodes(nil, nil), vw, rw, k, maxplus.Top)
	rg, err := eg.Row(k)
	if err != nil {
		t.Fatal(err)
	}
	got.Record(tg, got.LabelledNodes(nil, nil), vg, rg, k, maxplus.Top)
	if err := observe.CompareInstants(tw, tg); err != nil {
		t.Fatal(err)
	}
	for _, r := range tw.Resources() {
		if !slices.Equal(tw.Activities(r), tg.Activities(r)) {
			t.Fatalf("%s activities differ at k=%d:\n%+v\nvs\n%+v", r, k, tw.Activities(r), tg.Activities(r))
		}
	}
}

func TestRebindMatchesDeriveDidactic(t *testing.T) {
	template, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 100, Period: 1200, Seed: 41}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := zoo.Didactic(zoo.DidacticSpec{Tokens: 40, Period: 700, Seed: 7})
	rebound, err := Rebind(template, target)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 40, Period: 700, Seed: 7}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rebound.Arch != target {
		t.Fatal("rebound result not bound to the target architecture")
	}
	evalAll(t, direct, rebound, 40)
}

func TestRebindMatchesDeriveOptions(t *testing.T) {
	for _, opts := range []Options{{Reduce: true}, {PadNodes: 17}, {Reduce: true, PadNodes: 5}} {
		t.Run(fmt.Sprintf("reduce=%t_pad=%d", opts.Reduce, opts.PadNodes), func(t *testing.T) {
			template, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 30, Period: 1000, Seed: 3}), opts)
			if err != nil {
				t.Fatal(err)
			}
			rebound, err := Rebind(template, zoo.Didactic(zoo.DidacticSpec{Tokens: 30, Period: 650, Seed: 11}))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 30, Period: 650, Seed: 11}), opts)
			if err != nil {
				t.Fatal(err)
			}
			evalAll(t, direct, rebound, 30)
		})
	}
}

// Rebinding must hold across arbitrary structures: FIFOs, fork-join
// diamonds, shared processors, hardware resources.
func TestRebindMatchesDeriveRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		template, err := Derive(zoo.Random(zoo.RandomSpec{Seed: seed, Tokens: 5}), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rebound, err := Rebind(template, zoo.Random(zoo.RandomSpec{Seed: seed, Tokens: 20}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		direct, err := Derive(zoo.Random(zoo.RandomSpec{Seed: seed, Tokens: 20}), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		evalAll(t, direct, rebound, 20)
		// Boundary bindings must match the direct derivation too.
		for i := range direct.Inputs {
			dw, rw := direct.Inputs[i], rebound.Inputs[i]
			if dw.U != rw.U || dw.Transfer != rw.Transfer || len(dw.Gate) != len(rw.Gate) ||
				len(dw.SameIterGate) != len(rw.SameIterGate) {
				t.Fatalf("seed %d: input binding %d differs", seed, i)
			}
		}
	}
}

func TestRebindRejectsShapeMismatch(t *testing.T) {
	template, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 1200, Seed: 41}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rebind(template, zoo.DidacticChain(2, zoo.DidacticSpec{Tokens: 10, Period: 1200, Seed: 41})); err == nil {
		t.Fatal("rebinding across structures did not fail")
	}
}

func TestCacheDerivesOncePerShape(t *testing.T) {
	c := NewCache()
	before := Calls()
	for seed := int64(0); seed < 8; seed++ {
		if _, err := c.Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 900, Seed: seed}), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		if _, err := c.Derive(zoo.DidacticChain(2, zoo.DidacticSpec{Tokens: 10, Period: 900, Seed: seed}), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := c.Stats()
	if misses != 2 || hits != 10 {
		t.Fatalf("cache stats: hits=%d misses=%d, want 10/2", hits, misses)
	}
	if got := Calls() - before; got != 2 {
		t.Fatalf("Derive ran %d times, want 2 (once per shape)", got)
	}
	if c.Shapes() != 2 {
		t.Fatalf("cache holds %d shapes, want 2", c.Shapes())
	}

	// A nil cache derives privately: every Derive runs one derivation,
	// a batch one for all its lanes, and each lane stays bound to its
	// own architecture.
	var private *Cache
	archs := []*model.Architecture{
		zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 900, Seed: 1}),
		zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 700, Seed: 2}),
	}
	before = Calls()
	for _, a := range archs {
		r, err := private.Derive(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Arch != a {
			t.Fatalf("private derivation bound to %q, want %q", r.Arch.Name, a.Name)
		}
	}
	lanes, err := private.DeriveBatch(archs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, lane := range lanes {
		if lane.Arch != archs[i] {
			t.Fatalf("private lane %d bound to %q, want %q", i, lane.Arch.Name, archs[i].Name)
		}
	}
	if got := Calls() - before; got != 3 {
		t.Fatalf("a nil cache ran Derive %d times, want 3 (two points, one batch)", got)
	}
}

func TestCacheOptionsSeparateEntries(t *testing.T) {
	c := NewCache()
	spec := zoo.DidacticSpec{Tokens: 10, Period: 900, Seed: 1}
	for _, opts := range []Options{{}, {Reduce: true}, {PadNodes: 3}} {
		if _, err := c.Derive(zoo.Didactic(spec), opts); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses := c.Stats(); misses != 3 {
		t.Fatalf("distinct options shared a cache entry: misses=%d, want 3", misses)
	}
}

func TestCacheConcurrentSingleDerive(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	results := make([]*Result, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 10, Period: 900, Seed: int64(i)}), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if _, misses := c.Stats(); misses != 1 {
		t.Fatalf("concurrent requests derived %d times, want 1", misses)
	}
	for i, res := range results {
		if res == nil || res.Graph == nil || !res.Graph.Frozen() {
			t.Fatalf("result %d unusable", i)
		}
	}
}
