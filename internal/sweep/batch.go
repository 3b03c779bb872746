package sweep

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
)

// batchStats accumulates the batched-evaluation counters feeding
// Stats.Batches / BatchedPoints / BatchOccupancy.
type batchStats struct {
	batches int // batched engine invocations that ran
	points  int // points those invocations evaluated
}

// genPoint is one pre-generated grid point awaiting batched dispatch.
type genPoint struct {
	arch  *model.Architecture
	dopts derive.Options
	group []string
}

// CohortKey names the equivalence class of points a single batched run
// can carry: one structural shape evaluated under one set of per-point
// options. Points whose generation or shape derivation fails are
// finished immediately and never join a cohort. Exported so the
// distributed coordinator (internal/shard) cuts its chunks along
// exactly the cohort boundaries the worker-side sweep will use — that
// alignment is what keeps the fleet's batch accounting bit-identical to
// a single-process sweep.
func CohortKey(shape string, dopts derive.Options, group []string) string {
	return fmt.Sprintf("%s\x00pad=%d reduce=%t\x00%s",
		shape, dopts.PadNodes, dopts.Reduce, strings.Join(group, ","))
}

// runBatched is the batch-first evaluation strategy: pre-generate every
// point, group the points into shape cohorts, chunk each cohort at
// Options.BatchWidth and evaluate the chunks on the engine's batched
// path from a worker pool. Three phases:
//
//  1. Generate all architectures concurrently and derive each point's
//     structural shape. Failures finish the point right away.
//  2. Group by cohort key in grid order and cut chunks of at most
//     BatchWidth points — grid neighbours stay lane neighbours, so
//     results remain deterministic and independent of the worker count.
//  3. Dispatch chunks to the worker pool. Each chunk is one RunBatch
//     call; a wholesale batch failure re-evaluates that chunk's points
//     through the scalar path (which regenerates them), per-lane
//     failures fail only their point. Baselines, when requested, run
//     per point — the reference executor has no batched form.
//
// Progress is coalesced: one notification per finished chunk, advancing
// by the chunk size, still summing to the total under cancellation.
func runBatched(ctx context.Context, pts []Point, gen Generator, br engine.BatchRunner, refEng engine.Engine, opts Options, cache *derive.Cache, workers int, results []PointResult, report func(int)) batchStats {
	prep := make([]genPoint, len(pts))
	keys := make([]string, len(pts))
	failed := make([]bool, len(pts))

	// Phase 1: concurrent generation and shape derivation.
	var wg sync.WaitGroup
	gjobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range gjobs {
				prepPoint(ctx, pts[i], gen, opts, &prep[i], &keys[i], &results[i])
				failed[i] = results[i].Err != nil
			}
		}()
	}
	for i := range pts {
		gjobs <- i
	}
	close(gjobs)
	wg.Wait()

	// Points that already failed (generation, shape derivation or a
	// pre-existing cancellation) are finished; report them as one
	// coalesced stride.
	nfailed := 0
	for i := range pts {
		if failed[i] {
			nfailed++
		}
	}
	report(nfailed)

	// Phase 2: cohorts in grid order, cut into chunks of BatchWidth.
	order := make([]string, 0)
	cohorts := make(map[string][]int)
	for i := range pts {
		if failed[i] {
			continue
		}
		k := keys[i]
		if _, ok := cohorts[k]; !ok {
			order = append(order, k)
		}
		cohorts[k] = append(cohorts[k], i)
	}
	var chunks [][]int
	for _, k := range order {
		members := cohorts[k]
		for len(members) > 0 {
			n := opts.BatchWidth
			if n > len(members) {
				n = len(members)
			}
			chunks = append(chunks, members[:n:n])
			members = members[n:]
		}
	}

	// Phase 3: chunk worker pool, mirroring the per-point dispatch
	// loop's cancellation contract (done == total even on cancel).
	var batches, batched atomic.Int64
	cjobs := make(chan []int)
	failChunk := func(chunk []int, err error) {
		for _, i := range chunk {
			results[i] = PointResult{Point: pts[i], Err: err}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range cjobs {
				if err := ctx.Err(); err != nil {
					failChunk(chunk, err)
				} else {
					evalChunk(ctx, chunk, pts, prep, gen, br, refEng, opts, cache, results, &batches, &batched)
				}
				report(len(chunk))
			}
		}()
	}
dispatch:
	for ci := range chunks {
		select {
		case <-ctx.Done():
			for _, chunk := range chunks[ci:] {
				failChunk(chunk, ctx.Err())
				report(len(chunk))
			}
			break dispatch
		case cjobs <- chunks[ci]:
		}
	}
	close(cjobs)
	wg.Wait()
	return batchStats{batches: int(batches.Load()), points: int(batched.Load())}
}

// prepPoint generates one point's architecture and cohort key. Panics
// are confined to the point, exactly as in evalPoint.
func prepPoint(ctx context.Context, p Point, gen Generator, opts Options, gp *genPoint, key *string, pr *PointResult) {
	defer func() {
		if r := recover(); r != nil {
			*pr = PointResult{Point: p, Err: fmt.Errorf("sweep: point %d (%s): panic: %v", p.Index, p, r)}
		}
	}()
	*pr = PointResult{Point: p}
	if err := ctx.Err(); err != nil {
		pr.Err = err
		return
	}
	a, err := gen(p)
	if err != nil {
		pr.Err = fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, err)
		return
	}
	if a == nil {
		pr.Err = fmt.Errorf("sweep: point %d (%s): generator returned no architecture", p.Index, p)
		return
	}
	shape, err := derive.ShapeKey(a)
	if err != nil {
		pr.Err = fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, err)
		return
	}
	gp.arch = a
	gp.dopts = opts.Derive
	if opts.DeriveFor != nil {
		gp.dopts = opts.DeriveFor(p)
	}
	gp.group = opts.Group
	if opts.GroupFor != nil {
		gp.group = opts.GroupFor(p)
	}
	*key = CohortKey(shape, gp.dopts, gp.group)
}

// evalChunk evaluates one shape cohort chunk through the batched engine
// path; on a wholesale batch failure every point of the chunk re-runs
// through the scalar path.
func evalChunk(ctx context.Context, chunk []int, pts []Point, prep []genPoint, gen Generator, br engine.BatchRunner, refEng engine.Engine, opts Options, cache *derive.Cache, results []PointResult, batches, batched *atomic.Int64) {
	archs := make([]*model.Architecture, len(chunk))
	for l, i := range chunk {
		archs[l] = prep[i].arch
	}
	// All chunk members share one cohort key, so the first point's
	// options speak for the chunk.
	lead := prep[chunk[0]]
	out, laneErrs, err := runBatchRecovered(ctx, br, archs, engine.Options{
		Record:        opts.Record,
		LimitNs:       int64(opts.Limit),
		AbstractGroup: lead.group,
		Derive:        lead.dopts,
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
			addBaseline(ctx, p, gen, refEng, opts, &pr)
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
