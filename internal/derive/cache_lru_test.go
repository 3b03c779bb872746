package derive

import (
	"testing"

	"dyncomp/internal/zoo"
)

// The chain length changes the topology, so each stage count below is
// its own structural shape (one cache entry).
func TestCacheLRUEviction(t *testing.T) {
	c := NewCacheLimit(2)
	build := func(stages int) {
		a := zoo.DidacticChain(stages, zoo.DidacticSpec{Tokens: 5, Period: 100, Seed: 1})
		if _, err := c.Derive(a, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	build(1)
	build(2)
	if got := c.Shapes(); got != 2 {
		t.Fatalf("cache holds %d shapes, want 2", got)
	}
	// Touch shape 1 so shape 2 is the LRU victim when shape 3 arrives.
	build(1)
	build(3)
	if got := c.Shapes(); got != 2 {
		t.Fatalf("cache holds %d shapes after eviction, want 2", got)
	}
	if ev := c.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// Shape 1 must have survived (recently used): requesting it is a hit,
	// not a re-derivation.
	_, missesBefore := c.Stats()
	build(1)
	if _, misses := c.Stats(); misses != missesBefore {
		t.Fatalf("shape 1 was evicted despite being recently used")
	}
	// Shape 2 was evicted: requesting it re-derives.
	build(2)
	if _, misses := c.Stats(); misses != missesBefore+1 {
		t.Fatalf("shape 2 not re-derived after eviction")
	}
}

func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewCacheLimit(0)
	for stages := 1; stages <= 5; stages++ {
		a := zoo.DidacticChain(stages, zoo.DidacticSpec{Tokens: 5, Period: 100, Seed: 1})
		if _, err := c.Derive(a, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Shapes(); got != 5 {
		t.Fatalf("cache holds %d shapes, want 5", got)
	}
	if ev := c.Evictions(); ev != 0 {
		t.Fatalf("unbounded cache evicted %d entries", ev)
	}
}

func TestCacheSnapshotOccupancy(t *testing.T) {
	c := NewCacheLimit(8)
	run := func(stages, times int) {
		for i := 0; i < times; i++ {
			a := zoo.DidacticChain(stages, zoo.DidacticSpec{Tokens: 5, Period: 100, Seed: int64(i + 1)})
			if _, err := c.Derive(a, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(1, 3)
	run(2, 1)
	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d rows, want 2", len(snap))
	}
	// Most recently used first.
	if snap[0].Hits != 1 || snap[1].Hits != 3 {
		t.Fatalf("snapshot hits = %d,%d, want 1,3 (MRU first)", snap[0].Hits, snap[1].Hits)
	}
	for _, sh := range snap {
		if sh.Arch == "" || len(sh.Digest) != 8 {
			t.Fatalf("malformed snapshot row %+v", sh)
		}
	}
}

// A snapshot digest is a /metrics label: the entry key it digests (the
// shape key plus the derivation options) keeps its bytes.
func TestCacheSnapshotDigestPinned(t *testing.T) {
	c := NewCacheLimit(8)
	for _, want := range []struct {
		opts   Options
		digest string
	}{
		{Options{}, "eca08530"},
		{Options{PadNodes: 3, Reduce: true}, "1f716de4"},
	} {
		a := zoo.DidacticChain(2, zoo.DidacticSpec{Tokens: 5, Period: 100, Seed: 1})
		if _, err := c.Derive(a, want.opts); err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot()[0].Digest; got != want.digest {
			t.Errorf("options %+v: digest %s, want %s", want.opts, got, want.digest)
		}
	}
}
