package derive

import (
	"testing"

	"dyncomp/internal/model"
	"dyncomp/internal/tdg"
	"dyncomp/internal/zoo"
)

// TestDeriveBatchMatchesPerPointDerive checks each lane of a batch
// derivation evaluates bit-exactly like an individual Derive of the same
// architecture, and that the lanes share one compiled structure (they
// are joinable into a tdg.BatchEvaluator), on a nil cache (a private
// derivation) and on a fresh one.
func TestDeriveBatchMatchesPerPointDerive(t *testing.T) {
	specs := []zoo.DidacticSpec{
		{Tokens: 12, Period: 1200, Seed: 41},
		{Tokens: 12, Period: 900, Seed: 7},
		{Tokens: 12, Period: 0, Seed: 99},
		{Tokens: 12, Period: 1200, Seed: 41}, // duplicate point: still its own lane
	}
	archs := make([]*model.Architecture, len(specs))
	for i, s := range specs {
		archs[i] = zoo.Didactic(s)
	}
	for _, c := range []*Cache{nil, NewCache()} {
		lanes, err := c.DeriveBatch(archs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(lanes) != len(archs) {
			t.Fatalf("%d lanes for %d architectures", len(lanes), len(archs))
		}
		progs := make([]*tdg.Program, len(lanes))
		for i, lane := range lanes {
			want, err := Derive(archs[i], Options{})
			if err != nil {
				t.Fatal(err)
			}
			evalAll(t, want, lane, 12)
			if lane.Program() == nil {
				t.Fatalf("lane %d carries no compiled program", i)
			}
			progs[i] = lane.Program()
		}
		if _, err := tdg.NewBatchEvaluator(progs); err != nil {
			t.Fatalf("batch lanes are not batch-compatible: %v", err)
		}
	}
	var private *Cache
	if _, err := private.DeriveBatch(nil, Options{}); err == nil {
		t.Fatal("a nil cache accepted an empty batch")
	}
	mixed := []*model.Architecture{archs[0], zoo.Pipeline(zoo.PipelineSpec{XSize: 4, Tokens: 5, Seed: 1})}
	if _, err := private.DeriveBatch(mixed, Options{}); err == nil {
		t.Fatal("a nil cache accepted a mixed-shape batch")
	}
}

// TestRebindBatchRejectsShapeMismatch pins the whole-batch failure mode:
// one structurally different lane fails the batch, enabling a wholesale
// scalar fallback.
func TestRebindBatchRejectsShapeMismatch(t *testing.T) {
	base, err := Derive(zoo.Didactic(zoo.DidacticSpec{Tokens: 5, Period: 100, Seed: 1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	archs := []*model.Architecture{
		zoo.Didactic(zoo.DidacticSpec{Tokens: 5, Period: 200, Seed: 2}),
		zoo.Pipeline(zoo.PipelineSpec{XSize: 4, Tokens: 5, Seed: 1}),
	}
	if _, err := RebindBatch(base, archs); err == nil {
		t.Fatal("RebindBatch accepted a shape-mismatched lane")
	}
	if _, err := RebindBatch(base, nil); err == nil {
		t.Fatal("RebindBatch accepted an empty batch")
	}
}

// TestCacheDeriveBatchAccounting checks the batched cache path derives
// once per shape and counts every lane as a request: a fresh batch of
// three is one miss plus two hits; a repeat batch is three hits.
func TestCacheDeriveBatchAccounting(t *testing.T) {
	c := NewCache()
	archs := []*model.Architecture{
		zoo.Didactic(zoo.DidacticSpec{Tokens: 5, Period: 100, Seed: 1}),
		zoo.Didactic(zoo.DidacticSpec{Tokens: 5, Period: 200, Seed: 2}),
		zoo.Didactic(zoo.DidacticSpec{Tokens: 5, Period: 300, Seed: 3}),
	}
	lanes, err := c.DeriveBatch(archs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("fresh batch: hits=%d misses=%d, want 2/1", hits, misses)
	}
	for i, lane := range lanes {
		if lane.Arch != archs[i] {
			t.Fatalf("lane %d bound to %q, want %q", i, lane.Arch.Name, archs[i].Name)
		}
	}
	if _, err := c.DeriveBatch(archs, Options{}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 5 || misses != 1 {
		t.Fatalf("repeat batch: hits=%d misses=%d, want 5/1", hits, misses)
	}
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Hits != 6 {
		t.Fatalf("snapshot %+v, want one entry with 6 requests", snap)
	}

	// A mixed-shape batch fails whole.
	mixed := append(archs[:2:2], zoo.Pipeline(zoo.PipelineSpec{XSize: 4, Tokens: 5, Seed: 1}))
	if _, err := c.DeriveBatch(mixed, Options{}); err == nil {
		t.Fatal("DeriveBatch accepted a mixed-shape batch")
	}
}
