package shard

import (
	"sort"
	"time"

	"dyncomp/internal/serve"
	"dyncomp/internal/sweep"
)

// job is one distributed sweep: the shared serve.Lifecycle (state
// machine, progress counter, change broadcast) plus the deterministic
// chunk plan and the merged results. Every mutable field is guarded by
// the lifecycle lock.
type job struct {
	serve.Lifecycle
	spec   serve.SweepRequest // effective batch width pinned
	axes   []sweep.Axis
	shapes int
	chunks []sweep.Chunk

	chunkDone     []bool
	points        []*serve.SweepPoint // by global grid index
	arrived       []serve.ChunkPoint  // arrival order, feeds the NDJSON stream
	batches       int
	batchedPoints int
	failed        int
}

// newJob binds a deterministic plan to a fresh job and fails the
// plan-time casualties immediately — they count toward done from the
// start, exactly as the sweep engine finishes unbuildable points before
// dispatch.
func newJob(spec serve.SweepRequest, created time.Time, jp *jobPlan) *job {
	j := &job{
		Lifecycle: serve.Lifecycle{
			Engine:   jp.plan.Engine,
			Scenario: jp.plan.Scenario,
			Total:    jp.plan.Total,
			Created:  created,
		},
		spec:      spec,
		axes:      jp.plan.Axes,
		shapes:    jp.shapes,
		chunks:    jp.chunks,
		chunkDone: make([]bool, len(jp.chunks)),
		points:    make([]*serve.SweepPoint, jp.plan.Total),
	}
	for _, cp := range jp.failed {
		pt := cp.SweepPoint
		j.points[cp.Index] = &pt
		j.arrived = append(j.arrived, cp)
		j.failed++
	}
	j.AdvanceLocked(len(j.arrived)) // not shared yet: no lock to take
	return j
}

// applyChunk merges one completed chunk. The chunkDone guard makes the
// merge idempotent: replay after a restart, or any stray duplicate
// delivery, can neither double-count progress nor duplicate points.
// Progress is monotonic by construction — every point that counts
// toward done is one arrival, and arrivals only ever grow, under one
// lock.
func (j *job) applyChunk(ci int, points []serve.ChunkPoint, batches, batchedPoints int) bool {
	j.Lock()
	defer j.Unlock()
	if ci < 0 || ci >= len(j.chunks) || j.chunkDone[ci] || j.StateLocked().Terminal() {
		return false
	}
	j.chunkDone[ci] = true
	for _, cp := range points {
		if cp.Index < 0 || cp.Index >= j.Total || j.points[cp.Index] != nil {
			continue
		}
		pt := cp.SweepPoint
		j.points[cp.Index] = &pt
		j.arrived = append(j.arrived, cp)
		if cp.Error != "" {
			j.failed++
		}
	}
	j.batches += batches
	j.batchedPoints += batchedPoints
	j.AdvanceLocked(len(j.arrived))
	return true
}

// failChunk settles an undeliverable chunk: every point fails with the
// fabric error, so done still reaches total and the results report what
// happened to each point. Fabric failures are deliberately not
// persisted — a restarted coordinator re-dispatches the chunk, and a
// recovered fleet may then complete it.
func (j *job) failChunk(ci int, err error) {
	pts, gerr := sweep.GridSelect(j.axes, j.chunks[ci].Indices)
	if gerr != nil {
		return // the plan produced these indices; cannot happen
	}
	points := make([]serve.ChunkPoint, 0, len(pts))
	for _, p := range pts {
		points = append(points, serve.ChunkPointOf(sweep.PointResult{Point: p, Err: err}))
	}
	j.applyChunk(ci, points, 0, 0)
}

// pendingChunks lists the chunks not yet merged, in plan order.
func (j *job) pendingChunks() []int {
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

// complete reports whether every chunk has been merged.
func (j *job) complete() bool {
	j.Lock()
	defer j.Unlock()
	for _, done := range j.chunkDone {
		if !done {
			return false
		}
	}
	return true
}

// arrivedSince returns the points that arrived at position from on, in
// arrival order, with the current state and the channel that closes on
// the next change — one iteration of the NDJSON streaming loop.
func (j *job) arrivedSince(from int) ([]serve.ChunkPoint, serve.JobState, <-chan struct{}) {
	j.Lock()
	defer j.Unlock()
	var out []serve.ChunkPoint
	if from < len(j.arrived) {
		out = append(out, j.arrived[from:]...)
	}
	return out, j.StateLocked(), j.ChangedLocked()
}

// RenderLocked adds the fleet-level statistics and the per-point
// results in grid order.
//
// Stats semantics in the distributed setting: Shapes counts the
// distinct structural shapes the plan derived; DeriveCalls and
// CacheHits are zero because derivation caches live in the workers
// (scrape their /metrics); BatchOccupancy is recomputed from the
// summed batch counts and the pinned width, which matches the
// single-process number exactly because chunk cuts are width-aligned.
func (j *job) RenderLocked(out *serve.JobResult) {
	out.Stats = j.statsLocked(out.Job)
	out.Points = make([]serve.SweepPoint, j.Total)
	for i, pt := range j.points {
		if pt != nil {
			out.Points[i] = *pt
			continue
		}
		// A chunk that never came back before settling: fail the
		// point explicitly rather than serving a hole.
		out.Points[i] = serve.SweepPoint{Params: map[string]int64{}, Error: "point never evaluated"}
	}
}

func (j *job) statsLocked(life serve.Job) *serve.SweepStats {
	st := &serve.SweepStats{
		Points:        j.Total,
		Failed:        j.failed,
		Shapes:        j.shapes,
		Batches:       j.batches,
		BatchedPoints: j.batchedPoints,
	}
	if life.Started != nil && life.Finished != nil {
		st.WallNs = life.Finished.Sub(*life.Started).Nanoseconds()
	}
	if w := j.spec.Options.BatchWidth; j.batches > 0 && w > 0 {
		st.BatchOccupancy = float64(j.batchedPoints) / float64(j.batches*w)
	}
	if j.spec.Options.Baseline {
		// Aggregate in grid order from the successful points, the exact
		// sequence the single-process summarize feeds AggregateOf — same
		// values, same order, bit-identical floats.
		var speedups, ratios []float64
		for _, pt := range j.points {
			if pt == nil || pt.Error != "" {
				continue
			}
			speedups = append(speedups, pt.SpeedUp)
			if pt.Result != nil && pt.Result.Activations > 0 {
				ratios = append(ratios, pt.EventRatio) // else undefined
			}
		}
		if a := sweep.AggregateOf(speedups); a.N > 0 {
			st.SpeedUp = &serve.Aggregate{N: a.N, Min: a.Min, Max: a.Max, Mean: a.Mean, Geomean: a.Geomean}
		}
		if a := sweep.AggregateOf(ratios); a.N > 0 {
			st.EventRatio = &serve.Aggregate{N: a.N, Min: a.Min, Max: a.Max, Mean: a.Mean, Geomean: a.Geomean}
		}
	}
	return st
}

// stateFromWire maps a persisted terminal state back onto the
// lifecycle. Unknown strings — a corrupted but parseable record —
// settle as failed rather than resurrecting the job.
func stateFromWire(s string) serve.JobState {
	switch s {
	case "done":
		return serve.JobDone
	case "cancelled":
		return serve.JobCancelled
	}
	return serve.JobFailed
}

// applyRecords replays recovered chunk results into the job, in chunk
// order so the NDJSON arrival stream of a resumed job is deterministic.
func (j *job) applyRecords(chunks map[int]ChunkRecord) {
	ids := make([]int, 0, len(chunks))
	for ci := range chunks {
		ids = append(ids, ci)
	}
	sort.Ints(ids)
	for _, ci := range ids {
		cr := chunks[ci]
		j.applyChunk(ci, cr.Points, cr.Batches, cr.BatchedPoints)
	}
}
