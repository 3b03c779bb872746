package serve

// The one sweep job both front ends run. A Server evaluates its jobs'
// chunks in process, on its own derivation cache; the internal/shard
// Coordinator dispatches them to a fleet of Servers over POST
// /v1/chunks. The chunk plan, the merge by grid index, progress,
// cancellation, settling and the statistics exist here, once.

import (
	"context"
	"net/http"
	"sync"
	"time"

	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/sweep"
)

// ChunkRunner evaluates chunk ci of j and merges the outcome: ApplyChunk
// with its points, or FailChunk with the error all of them fail with.
// It may return without either only once ctx is done; the chunk then
// stays pending.
type ChunkRunner func(ctx context.Context, j *SweepJob, ci int)

// SweepJob is one sweep: the shared lifecycle, the chunk plan and the
// points merged back by grid index. Every mutable field is guarded by
// the lifecycle lock.
type SweepJob struct {
	Lifecycle
	// Spec is the submitted request with the effective batch width
	// pinned, so every evaluator — and a replan after a restart — cuts
	// the same batches.
	Spec SweepRequest

	plan        *SweepPlan
	chunkPoints int           // fleet chunk size; 0 plans for one process
	cache       *derive.Cache // the evaluating process's cache; nil when caches live in the workers
	planOnce    sync.Once
	// archs holds, by grid index, the architectures a single-process
	// batched plan generated, until their chunk is taken (takeArchs).
	archs []*model.Architecture

	chunks        []sweep.Chunk
	chunkDone     []bool
	points        []*SweepPoint // by grid index
	arrived       []ChunkPoint  // arrival order, feeds the NDJSON stream
	shapes        int
	deriveCalls   int64
	cacheHits     int64
	batches       int
	batchedPoints int
	sampled       *sweep.Stats // the sampler's statistics of a sampled job's one chunk
}

// NewSweepJob validates spec under d (CompileSweep) and returns the
// queued job. chunkPoints > 0 plans it for a fleet: sweep.Plan cuts the
// grid into shape-cohort chunks of that many points, rounded to whole
// batches, which a coordinator routes by shape; sampling is refused,
// because the surrogate needs the whole grid. chunkPoints 0 plans it
// for one process: one batch per chunk when the engine batches, one
// point per chunk otherwise, and the whole grid as one chunk when
// sampled. A fleet job is planned at once, since the store's chunk
// records refer to its plan, live and after a restart; a single-process
// job is planned when it first runs, off the submitting request.
func NewSweepJob(spec SweepRequest, d SweepDefaults, chunkPoints int, created time.Time) (*SweepJob, *RequestError) {
	plan, rerr := CompileSweep(spec, d)
	if rerr != nil {
		return nil, rerr
	}
	if chunkPoints > 0 && plan.Opts.Sample.Enabled() {
		return nil, requestErrorf(http.StatusBadRequest, CodeInvalidSample,
			"options.sample_tolerance is not supported on distributed sweeps")
	}
	spec.Options.BatchWidth = plan.Opts.BatchWidth
	j := &SweepJob{
		Lifecycle: Lifecycle{
			Engine:   plan.Engine,
			Scenario: plan.Scenario,
			Total:    plan.Total,
			Created:  created,
		},
		Spec:        spec,
		plan:        plan,
		chunkPoints: chunkPoints,
		points:      make([]*SweepPoint, plan.Total),
	}
	if chunkPoints > 0 {
		j.planOnce.Do(j.cut)
	}
	return j, nil
}

// cut plans the chunks (see NewSweepJob). Points that fail planning —
// their model does not build or its shape does not derive — fail at
// once, as the sweep engine fails them before dispatch. The plan is a
// pure function of the spec and the chunk size, so a restarted
// coordinator identifies recovered chunk results by their position.
func (j *SweepJob) cut() {
	p := j.plan
	var (
		chunks []sweep.Chunk
		failed []ChunkPoint
		archs  []*model.Architecture
		shapes = map[string]bool{}
	)
	eng, _ := engine.Lookup(p.Engine) // CompileSweep resolved it
	_, batching := eng.(engine.BatchRunner)
	switch {
	case p.Opts.Sample.Enabled():
		all := make([]int, p.Total)
		for i := range all {
			all[i] = i
		}
		chunks = []sweep.Chunk{{Indices: all}}
	case j.chunkPoints == 0 && !(batching && p.Opts.BatchWidth > 0):
		chunks = make([]sweep.Chunk, p.Total)
		idx := make([]int, p.Total)
		for i := range chunks {
			idx[i] = i
			chunks[i].Indices = idx[i : i+1 : i+1]
		}
	default:
		target := j.chunkPoints
		if target == 0 {
			target = p.Opts.BatchWidth
		}
		pts, _ := sweep.Grid(p.Axes) // CompileSweep validated the axes
		gen := p.Gen
		if j.chunkPoints == 0 {
			// One process evaluates its chunks from the architectures
			// the plan generates; a fleet's workers generate their own.
			archs = make([]*model.Architecture, len(pts))
			gen = func(pt sweep.Point) (*model.Architecture, error) {
				a, err := p.Gen(pt)
				archs[pt.Index] = a
				return a, err
			}
		}
		// Never cancelled: the plan must not depend on when it was cut.
		var results []sweep.PointResult
		var bad []bool
		chunks, results, bad = sweep.Plan(context.Background(), pts, gen, p.Opts, p.Opts.Workers, target)
		for i, b := range bad {
			if b {
				failed = append(failed, chunkPointOf(results[i]))
				if archs != nil {
					archs[i] = nil // joins no chunk
				}
			}
		}
		for _, c := range chunks {
			shapes[c.Shape] = true
		}
	}

	j.Lock()
	defer j.Unlock()
	j.chunks, j.chunkDone, j.shapes = chunks, make([]bool, len(chunks)), len(shapes)
	j.archs = archs
	for _, cp := range failed {
		j.mergeLocked(cp)
	}
	j.advanceLocked(len(j.arrived))
}

// mergeLocked records one point unless its index is out of range or
// already taken.
func (j *SweepJob) mergeLocked(cp ChunkPoint) {
	if cp.Index < 0 || cp.Index >= j.Total || j.points[cp.Index] != nil {
		return
	}
	pt := cp.SweepPoint
	j.points[cp.Index] = &pt
	j.arrived = append(j.arrived, cp)
}

// Chunk returns chunk ci of the plan.
func (j *SweepJob) Chunk(ci int) sweep.Chunk {
	j.planOnce.Do(j.cut)
	return j.chunks[ci]
}

// takeArchs returns the architectures the plan generated for chunk ci,
// in its order, and forgets them, so a job holds each point's model
// only until its chunk runs. It returns nil when the plan kept none.
func (j *SweepJob) takeArchs(ci int) []*model.Architecture {
	j.planOnce.Do(j.cut)
	j.Lock()
	defer j.Unlock()
	if j.archs == nil {
		return nil
	}
	idx := j.chunks[ci].Indices
	out := make([]*model.Architecture, len(idx))
	for k, i := range idx {
		if out[k] = j.archs[i]; out[k] == nil {
			return nil // taken before
		}
		j.archs[i] = nil
	}
	return out
}

// Pending lists the chunks not yet merged, in plan order.
func (j *SweepJob) Pending() []int {
	j.planOnce.Do(j.cut)
	j.Lock()
	defer j.Unlock()
	var out []int
	for ci, done := range j.chunkDone {
		if !done {
			out = append(out, ci)
		}
	}
	return out
}

// ApplyChunk merges chunk ci's evaluation and reports whether it was
// new. The merge is idempotent — a replayed or stray duplicate delivery
// neither double-counts progress nor duplicates points — and a settled
// job merges nothing. Progress is the count of merged points, so it
// only grows.
func (j *SweepJob) ApplyChunk(ci int, resp ChunkResponse) bool {
	j.planOnce.Do(j.cut)
	j.Lock()
	defer j.Unlock()
	if ci < 0 || ci >= len(j.chunks) || j.chunkDone[ci] || j.state.Terminal() {
		return false
	}
	j.chunkDone[ci] = true
	for _, cp := range resp.Points {
		j.mergeLocked(cp)
	}
	j.batches += resp.Batches
	j.batchedPoints += resp.BatchedPoints
	j.advanceLocked(len(j.arrived))
	return true
}

// FailChunk settles a chunk no evaluator could run: every point fails
// with err, so done still reaches total and the results report what
// happened to each point.
func (j *SweepJob) FailChunk(ci int, err error) {
	pts, gerr := sweep.GridSelect(j.plan.Axes, j.Chunk(ci).Indices)
	if gerr != nil {
		return // the plan produced these indices; cannot happen
	}
	resp := ChunkResponse{Points: make([]ChunkPoint, 0, len(pts))}
	for _, p := range pts {
		resp.Points = append(resp.Points, chunkPointOf(sweep.PointResult{Point: p, Err: err}))
	}
	j.ApplyChunk(ci, resp)
}

// Run executes the job: it moves it to running, runs every pending
// chunk through run with at most inflight in flight, and settles. A job
// whose every chunk merged is done — point failures travel in the
// results — and a cancelled one is cancelled. A job interrupted by
// parent ending stays unsettled when resumable (a store resumes it
// from its last merged chunk) and settles cancelled otherwise.
func (j *SweepJob) Run(parent context.Context, inflight int, run ChunkRunner, resumable bool) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	if !j.Start(cancel, time.Now()) {
		return // cancelled while queued: settled already
	}
	sem := make(chan struct{}, max(inflight, 1))
	var wg sync.WaitGroup
	for _, ci := range j.Pending() {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			run(ctx, j, ci)
		}()
	}
	wg.Wait()

	j.Lock()
	defer j.Unlock()
	if j.cache != nil {
		j.shapes = j.cache.Shapes()
		j.cacheHits, j.deriveCalls = j.cache.Stats()
	}
	now := time.Now()
	switch {
	case !j.pendingLocked():
		j.settleLocked(JobDone, "", now)
	case j.cancelRequested || !resumable:
		j.settleLocked(JobCancelled, context.Canceled.Error(), now)
	}
}

// pendingLocked reports whether a chunk is still unmerged.
func (j *SweepJob) pendingLocked() bool {
	for _, done := range j.chunkDone {
		if !done {
			return true
		}
	}
	return false
}

// arrivedSince returns the points that arrived at position from on, in
// arrival order, with the current state and the channel that closes on
// the next change — one iteration of the NDJSON streaming loop.
func (j *SweepJob) arrivedSince(from int) ([]ChunkPoint, JobState, <-chan struct{}) {
	j.Lock()
	defer j.Unlock()
	var out []ChunkPoint
	if from < len(j.arrived) {
		out = append(out, j.arrived[from:]...)
	}
	return out, j.state, j.changedLocked()
}

// Result renders the job as GET /v1/sweeps/{id} answers it: the
// lifecycle plus, once settled, the statistics and the points in grid
// order. A point no chunk delivered — its job was cancelled or
// interrupted first — fails with the job's error. A settled job never
// changes, so the rendering is memoized: polling a finished large grid
// costs one conversion in total.
func (j *SweepJob) Result() JobResult {
	j.Lock()
	defer j.Unlock()
	if j.rendered != nil {
		return *j.rendered
	}
	out := JobResult{Job: j.snapshotLocked()}
	if !j.state.Terminal() {
		return out
	}
	msg := j.errMsg
	if msg == "" {
		msg = "point never evaluated"
	}
	out.Points = make([]SweepPoint, j.Total)
	for i, pt := range j.points {
		if pt == nil {
			pt = &SweepPoint{Params: map[string]int64{}, Error: msg}
		}
		out.Points[i] = *pt
	}
	out.Stats = j.statsLocked(out)
	j.rendered = &out
	return out
}

// statsLocked summarizes a settled job from its rendered points.
//
// Shapes, DeriveCalls and CacheHits describe the evaluating process's
// derivation cache as the job settled; a fleet's caches live in its
// workers, so a coordinator reports the distinct shapes of its plan
// and no cache counters. BatchOccupancy is recomputed from the summed
// batch counts and the pinned width, which matches a single sweep's
// exactly because chunk cuts are width-aligned. A sampled job's
// statistics are the sampler's.
func (j *SweepJob) statsLocked(out JobResult) *SweepStats {
	if j.sampled != nil {
		return statsJSON(*j.sampled)
	}
	st := &SweepStats{
		Points:        j.Total,
		Shapes:        j.shapes,
		DeriveCalls:   j.deriveCalls,
		CacheHits:     j.cacheHits,
		Batches:       j.batches,
		BatchedPoints: j.batchedPoints,
	}
	if out.Started != nil && out.Finished != nil {
		st.WallNs = out.Finished.Sub(*out.Started).Nanoseconds()
	}
	if w := j.Spec.Options.BatchWidth; j.batches > 0 && w > 0 {
		st.BatchOccupancy = float64(j.batchedPoints) / float64(j.batches*w)
	}
	// Aggregate in grid order, the exact sequence sweep.Summarize feeds
	// AggregateOf — same values, same order, bit-identical floats.
	var speedups, ratios []float64
	for _, pt := range out.Points {
		if pt.Error != "" {
			st.Failed++
			continue
		}
		if j.Spec.Options.Baseline {
			speedups = append(speedups, pt.SpeedUp)
			if pt.Result != nil && pt.Result.Activations > 0 {
				ratios = append(ratios, pt.EventRatio) // else undefined
			}
		}
	}
	if a := sweep.AggregateOf(speedups); a.N > 0 {
		st.SpeedUp = aggregateJSON(a)
	}
	if a := sweep.AggregateOf(ratios); a.N > 0 {
		st.EventRatio = aggregateJSON(a)
	}
	return st
}
