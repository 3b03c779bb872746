package sweep

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
)

// Chunk is one unit of evaluation cut by Plan: positions in the planned
// point slice (for a whole grid, its row-major indices), in grid order,
// that share one cohort — one structural shape evaluated under one set
// of per-point derive options and group, so a single batched run can
// carry them.
type Chunk struct {
	Shape   string // the cohort's structural shape (derive.ShapeKey)
	Indices []int
}

// cohort is the equivalence class of points one batched run can carry.
type cohort struct {
	shape string
	opts  string // derive options and group
}

// Plan generates every point on workers goroutines, derives each one's
// structural shape, groups the survivors into cohorts in grid order and
// cuts each cohort into chunks of target points, rounded down to whole
// batches of opts.BatchWidth (never below one batch), so only a
// cohort's last chunk runs partial lanes. Points whose generation or
// shape derivation fails come back with results[i].Err set and
// failed[i] true, and join no chunk; every other results[i] carries
// only its Point.
//
// The plan depends on nothing but the points and the options: the same
// input yields the same chunks in the same order for any worker count.
// A batched sweep plans with target = BatchWidth; the distributed
// coordinator (internal/shard) plans the whole grid with its chunk size,
// which is what keeps the fleet's batches identical to a single-process
// sweep's.
func Plan(ctx context.Context, pts []Point, gen Generator, opts Options, workers, target int) (chunks []Chunk, results []PointResult, failed []bool) {
	return plan(ctx, pts, gen, opts, workers, target, nil)
}

// plan is Plan that also keeps every generated architecture in archs
// (when non-nil), for the batched sweep to evaluate without generating
// the points again.
func plan(ctx context.Context, pts []Point, gen Generator, opts Options, workers, target int, archs []*model.Architecture) (chunks []Chunk, results []PointResult, failed []bool) {
	results = make([]PointResult, len(pts))
	failed = make([]bool, len(pts))
	keys := make([]cohort, len(pts))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				a, key, err := prepPoint(ctx, pts[i], gen, opts)
				results[i] = PointResult{Point: pts[i], Err: err}
				failed[i] = err != nil
				keys[i] = key
				if archs != nil {
					archs[i] = a
				}
			}
		}()
	}
	for i := range pts {
		next <- i
	}
	close(next)
	wg.Wait()

	size := target
	if w := opts.BatchWidth; w > 0 {
		size = max(size-size%w, w)
	}
	size = max(size, 1)
	var order []cohort
	members := map[cohort][]int{}
	for i, k := range keys {
		if failed[i] {
			continue
		}
		if _, ok := members[k]; !ok {
			order = append(order, k)
		}
		members[k] = append(members[k], i)
	}
	for _, k := range order {
		for m := members[k]; len(m) > 0; {
			n := min(size, len(m))
			chunks = append(chunks, Chunk{Shape: k.shape, Indices: m[:n:n]})
			m = m[n:]
		}
	}
	return chunks, results, failed
}

// prepPoint generates one point's architecture and its cohort. Panics
// are confined to the point, exactly as in evalPoint.
func prepPoint(ctx context.Context, p Point, gen Generator, opts Options) (a *model.Architecture, key cohort, err error) {
	defer func() {
		if r := recover(); r != nil {
			a, err = nil, fmt.Errorf("sweep: point %d (%s): panic: %v", p.Index, p, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, key, err
	}
	if a, err = generate(p, gen); err != nil {
		return nil, key, err
	}
	shape, err := derive.ShapeKey(a)
	if err != nil {
		return nil, key, fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, err)
	}
	dopts, group := pointOptions(p, opts)
	return a, cohort{shape: shape, opts: "pad=" + strconv.Itoa(dopts.PadNodes) +
		" reduce=" + strconv.FormatBool(dopts.Reduce) + "\x00" + strings.Join(group, ",")}, nil
}

// evalChunk evaluates one cohort chunk through the batched engine path;
// on a wholesale batch failure every point of the chunk re-runs through
// the scalar path. Baselines, when requested, run per point — the
// reference executor has no batched form.
func evalChunk(ctx context.Context, chunk []int, pts []Point, archs []*model.Architecture, gen Generator, br engine.BatchRunner, refEng engine.Engine, opts Options, cache *derive.Cache, results []PointResult, batches, batched *atomic.Int64) {
	lanes := make([]*model.Architecture, len(chunk))
	for l, i := range chunk {
		lanes[l] = archs[i]
	}
	// All chunk members share one cohort, so the first point's options
	// speak for the chunk.
	dopts, group := pointOptions(pts[chunk[0]], opts)
	out, laneErrs, err := runBatchRecovered(ctx, br, lanes, engine.Options{
		Record:        opts.Record,
		LimitNs:       int64(opts.Limit),
		AbstractGroup: group,
		Derive:        dopts,
		Cache:         cache,
	})
	if err != nil {
		// Wholesale failure: nothing ran. Fall back to scalar
		// evaluation so a batch-path limitation never fails a point a
		// per-point sweep would have completed.
		for _, i := range chunk {
			results[i] = evalPoint(ctx, pts[i], gen, br, refEng, opts, cache)
		}
		return
	}
	batches.Add(1)
	batched.Add(int64(len(chunk)))
	for l, i := range chunk {
		p := pts[i]
		if laneErrs[l] != nil {
			results[i] = PointResult{Point: p, Err: fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, laneErrs[l])}
			continue
		}
		pr := PointResult{Point: p, Run: pointStats(out[l]), Trace: out[l].Trace}
		if opts.Baseline {
			addBaseline(ctx, p, lanes[l], refEng, opts, &pr)
		}
		results[i] = pr
	}
}

// runBatchRecovered shields the sweep from a panicking batched run the
// way evalPoint shields it from a panicking scalar one; a panic reads as
// a wholesale failure, triggering the scalar fallback.
func runBatchRecovered(ctx context.Context, br engine.BatchRunner, archs []*model.Architecture, eopts engine.Options) (out []*engine.Result, laneErrs []error, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, laneErrs = nil, nil
			err = fmt.Errorf("sweep: batched run panicked: %v", r)
		}
	}()
	return br.RunBatch(ctx, archs, eopts)
}
