package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// didacticGen maps grid points onto didactic chains: the stages axis is
// structural (its own shape cohort), period and seed are dynamics-only.
func didacticGen(p Point) (*model.Architecture, error) {
	return zoo.DidacticChain(int(p.Get("stages", 1)), zoo.DidacticSpec{
		Tokens: 25,
		Period: maxplus.T(p.Get("period", 1000)),
		Seed:   p.Get("seed", 1),
	}), nil
}

// A batched sweep is an evaluation strategy, not a semantics change:
// every point's stats and trace are bit-exact against the per-point
// sweep of the same grid, and the batch counters account for every
// point exactly once.
func TestBatchedSweepBitExactAgainstPerPoint(t *testing.T) {
	axes := []Axis{
		{Name: "stages", Values: []int64{1, 2}},
		{Name: "period", Values: []int64{500, 900}},
		{Name: "seed", Values: []int64{1, 2, 3}},
	}
	scalar, err := Run(axes, didacticGen, Options{Record: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(axes, didacticGen, Options{Record: true, Workers: 3, BatchWidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if batched.Stats.Failed != 0 {
		t.Fatalf("%d batched points failed", batched.Stats.Failed)
	}
	for i := range scalar.Points {
		s, b := scalar.Points[i], batched.Points[i]
		if b.Err != nil {
			t.Fatalf("point %d (%s): %v", i, b.Point, b.Err)
		}
		if s.Run.FinalTimeNs != b.Run.FinalTimeNs || s.Run.Iterations != b.Run.Iterations ||
			s.Run.Activations != b.Run.Activations || s.Run.Events != b.Run.Events {
			t.Fatalf("point %d (%s): scalar %+v != batched %+v", i, s.Point, s.Run, b.Run)
		}
		if err := observe.CompareInstants(s.Trace, b.Trace); err != nil {
			t.Fatalf("point %d (%s): %v", i, s.Point, err)
		}
	}
	// 12 points in 2 shape cohorts of 6, chunked at width 5: 5+1 twice.
	st := batched.Stats
	if st.Batches != 4 || st.BatchedPoints != 12 {
		t.Fatalf("batches=%d batched_points=%d, want 4/12", st.Batches, st.BatchedPoints)
	}
	if want := 12.0 / 20.0; st.BatchOccupancy != want {
		t.Fatalf("occupancy %v, want %v", st.BatchOccupancy, want)
	}
	if st.Shapes != 2 {
		t.Fatalf("cache saw %d shapes, want 2", st.Shapes)
	}
	if scalar.Stats.Batches != 0 || scalar.Stats.BatchedPoints != 0 || scalar.Stats.BatchOccupancy != 0 {
		t.Fatalf("per-point sweep reports batch stats: %+v", scalar.Stats)
	}
}

// Batched progress coalesces to one notification per chunk — strides
// summing to the total — instead of one per point.
func TestBatchedSweepProgressCoalesced(t *testing.T) {
	axes := []Axis{{Name: "seed", Values: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}}
	var dones []int
	_, err := Run(axes, didacticGen, Options{
		Workers:    1,
		BatchWidth: 4,
		Progress:   func(done, total int) { dones = append(dones, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// One cohort of 10 at width 4: chunks of 4, 4 and 2.
	want := []int{4, 8, 10}
	if len(dones) != len(want) {
		t.Fatalf("progress fired %d times (%v), want %v", len(dones), dones, want)
	}
	for i := range want {
		if dones[i] != want[i] {
			t.Fatalf("progress sequence %v, want %v", dones, want)
		}
	}
}

// Cancellation keeps the batched progress contract: the counts still
// sum to the total, undispatched chunks fail with the context error,
// and RunContext surfaces it.
func TestBatchedSweepProgressReachesTotalOnCancel(t *testing.T) {
	axes := []Axis{{Name: "seed", Values: make([]int64, 24)}}
	for i := range axes[0].Values {
		axes[0].Values[i] = int64(i + 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	maxDone := 0
	res, err := RunContext(ctx, axes, didacticGen, Options{
		Workers:    2,
		BatchWidth: 2,
		Progress: func(done, total int) {
			mu.Lock()
			if done > maxDone {
				maxDone = done
			}
			mu.Unlock()
			cancel() // first finished chunk cancels the rest
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	if maxDone != 24 {
		t.Fatalf("progress peaked at %d, want total 24", maxDone)
	}
	mu.Unlock()
	if res.Stats.Failed == 0 {
		t.Fatal("cancellation failed no points")
	}
	for i := range res.Points {
		pr := res.Points[i]
		if pr.Err != nil && !errors.Is(pr.Err, context.Canceled) {
			t.Fatalf("point %d failed with %v, want context.Canceled", i, pr.Err)
		}
	}
}

// Engines without the batch capability silently use the per-point
// path: same results, zero batch counters.
func TestBatchedSweepFallsBackWithoutCapability(t *testing.T) {
	axes := []Axis{{Name: "seed", Values: []int64{1, 2, 3, 4}}}
	for _, opts := range []Options{
		{Engine: "adaptive", BatchWidth: 8},
		{Engine: "reference", BatchWidth: 8},
	} {
		res, err := Run(axes, didacticGen, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.Stats.Failed != 0 {
			t.Fatalf("%+v: %d points failed", opts, res.Stats.Failed)
		}
		if res.Stats.Batches != 0 || res.Stats.BatchedPoints != 0 {
			t.Fatalf("%+v: batch counters %d/%d on a per-point path", opts, res.Stats.Batches, res.Stats.BatchedPoints)
		}
	}
}

// refusingBatcher is the equivalent engine behind a batched path that
// always fails wholesale, counting its refusals.
type refusingBatcher struct{ engine.Engine }

var batchRefusals atomic.Int64

func (refusingBatcher) Name() string { return "refusing-batcher" }

func (refusingBatcher) RunBatch(context.Context, []*model.Architecture, engine.Options) ([]*engine.Result, []error, error) {
	batchRefusals.Add(1)
	return nil, nil, errors.New("batch refused")
}

func init() {
	eq, err := engine.Lookup("equivalent")
	if err != nil {
		panic(err)
	}
	engine.Register(refusingBatcher{eq})
}

// A wholesale batch failure falls back to scalar evaluation instead of
// failing the chunk's points: every chunk degrades to per-point runs —
// and still succeeds.
func TestBatchedSweepScalarFallbackOnWholesaleFailure(t *testing.T) {
	axes := []Axis{{Name: "seed", Values: []int64{1, 2, 3, 4, 5}}}
	before := batchRefusals.Load()
	res, err := Run(axes, didacticGen, Options{Engine: "refusing-batcher", BatchWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if batchRefusals.Load() == before {
		t.Fatal("the batched path was never tried")
	}
	if res.Stats.Failed != 0 {
		for i := range res.Points {
			if res.Points[i].Err != nil {
				t.Logf("point %d: %v", i, res.Points[i].Err)
			}
		}
		t.Fatalf("%d points failed under the scalar fallback", res.Stats.Failed)
	}
	if res.Stats.Batches != 0 || res.Stats.BatchedPoints != 0 {
		t.Fatalf("batch counters %d/%d, want 0/0 after wholesale fallback", res.Stats.Batches, res.Stats.BatchedPoints)
	}
}

// The batched analogue of TestPooledEvaluatorsUnderParallelSweep: chunk
// evaluation recycles batch evaluators through the program's shared
// pool from many workers at once. Run with -race (CI does), this is the
// data-race check for pooled batched state; results must also be
// independent of the worker count.
func TestPooledBatchEvaluatorsUnderParallelBatchedSweep(t *testing.T) {
	axes := []Axis{
		{Name: "period", Values: []int64{500, 700, 900, 1100, 1300, 1500}},
		{Name: "seed", Values: []int64{1, 2, 3, 4, 5, 6}},
	}
	run := func(workers int) *Result {
		res, err := Run(axes, didacticGen, Options{Workers: workers, Record: true, BatchWidth: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Failed > 0 {
			t.Fatalf("%d points failed", res.Stats.Failed)
		}
		if res.Stats.Batches != 12 || res.Stats.BatchedPoints != 36 {
			t.Fatalf("batches=%d batched_points=%d, want 12/36", res.Stats.Batches, res.Stats.BatchedPoints)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial.Points {
		s, p := serial.Points[i], parallel.Points[i]
		if s.Run.FinalTimeNs != p.Run.FinalTimeNs || s.Run.Iterations != p.Run.Iterations {
			t.Fatalf("point %d (%s): serial (%d ns, %d iters) != parallel (%d ns, %d iters)",
				i, s.Point, s.Run.FinalTimeNs, s.Run.Iterations, p.Run.FinalTimeNs, p.Run.Iterations)
		}
		if err := observe.CompareInstants(s.Trace, p.Trace); err != nil {
			t.Fatalf("point %d (%s): %v", i, fmt.Sprint(s.Point), err)
		}
	}
}

// Progress deliveries are strictly monotonic even when cohort chunks
// finish interleaved across many workers: the counter advance and the
// callback are serialized under one lock. The callback appends without
// its own synchronization on purpose — if the sweep ever stops
// serializing deliveries, the race detector flags this test before the
// monotonicity assertion even runs.
func TestBatchedSweepProgressMonotonic(t *testing.T) {
	axes := []Axis{
		{Name: "stages", Values: []int64{1, 2, 3}},
		{Name: "period", Values: []int64{500, 700, 900, 1100}},
		{Name: "seed", Values: []int64{1, 2, 3}},
	}
	var dones []int
	res, err := Run(axes, didacticGen, Options{
		Workers:    8,
		BatchWidth: 2,
		Progress:   func(done, total int) { dones = append(dones, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 0 {
		t.Fatalf("%d points failed", res.Stats.Failed)
	}
	if len(dones) == 0 {
		t.Fatal("progress never fired")
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] <= dones[i-1] {
			t.Fatalf("progress went backwards at delivery %d: %v", i, dones)
		}
	}
	if last := dones[len(dones)-1]; last != 36 {
		t.Fatalf("progress peaked at %d, want 36", last)
	}
}

// RunIndices evaluates a subset of the grid bit-exactly against the
// same points of the full sweep, preserving global indices — and when
// the subset is one whole shape cohort cut at a BatchWidth boundary,
// the batch accounting matches what the full sweep spent on it.
func TestRunIndicesMatchesFullSweep(t *testing.T) {
	axes := []Axis{
		{Name: "stages", Values: []int64{1, 2}},
		{Name: "seed", Values: []int64{1, 2, 3, 4, 5}},
	}
	full, err := Run(axes, didacticGen, Options{Workers: 2, BatchWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Indices 5..9 are the whole stages=2 cohort, in grid order.
	indices := []int{5, 6, 7, 8, 9}
	part, err := RunIndices(axes, indices, didacticGen, Options{Workers: 2, BatchWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Points) != len(indices) {
		t.Fatalf("got %d points, want %d", len(part.Points), len(indices))
	}
	for k, idx := range indices {
		p, f := part.Points[k], full.Points[idx]
		if p.Point.Index != idx {
			t.Fatalf("point %d has grid index %d, want %d", k, p.Point.Index, idx)
		}
		if p.Err != nil {
			t.Fatalf("point %d: %v", idx, p.Err)
		}
		if p.Run.FinalTimeNs != f.Run.FinalTimeNs || p.Run.Iterations != f.Run.Iterations ||
			p.Run.Activations != f.Run.Activations || p.Run.Events != f.Run.Events {
			t.Fatalf("point %d: subset %+v != full %+v", idx, p.Run, f.Run)
		}
	}
	// The cohort of 5 at width 2 cuts into 2+2+1 both ways.
	if part.Stats.Batches != 3 || part.Stats.BatchedPoints != 5 {
		t.Fatalf("batches=%d batched_points=%d, want 3/5",
			part.Stats.Batches, part.Stats.BatchedPoints)
	}
}

// GridSelect rejects out-of-range and duplicate indices — a chunk must
// never evaluate a point twice or a point of another grid.
func TestGridSelectValidation(t *testing.T) {
	axes := []Axis{{Name: "seed", Values: []int64{1, 2, 3}}}
	if _, err := GridSelect(axes, []int{0, 3}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := GridSelect(axes, []int{1, 1}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := GridSelect(axes, nil); err == nil {
		t.Fatal("empty selection accepted")
	}
	pts, err := GridSelect(axes, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Index != 2 || pts[1].Index != 0 {
		t.Fatalf("indices not preserved in order: %v", pts)
	}
}
