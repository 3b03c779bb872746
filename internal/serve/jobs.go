package serve

import (
	"context"
	"errors"
	"time"

	"dyncomp/internal/sweep"
)

// job is one asynchronous sweep on this server's worker pool: the shared
// lifecycle plus the prepared sweep inputs and, once settled, the
// result (guarded by the lifecycle lock).
type job struct {
	Lifecycle
	axes []sweep.Axis
	gen  sweep.Generator
	opts sweep.Options // Progress and Cache are injected at run time
	res  *sweep.Result
}

// RenderLocked adds the sweep statistics and per-point results — also
// the partial ones of a cancelled job.
func (j *job) RenderLocked(out *JobResult) {
	if j.res == nil {
		return
	}
	out.Stats = statsJSON(j.res.Stats)
	out.Points = make([]SweepPoint, 0, len(j.res.Points))
	for _, pr := range j.res.Points {
		out.Points = append(out.Points, pointJSON(pr))
	}
}

// enqueue hands a job to the worker pool without blocking; a full queue
// refuses it.
func (s *Server) enqueue(j *job) bool {
	select {
	case s.queue <- j:
		return true
	default:
		return false
	}
}

// activeJobs counts queued and running jobs (for /metrics and /healthz).
func (s *Server) activeJobs() (queued, running int) {
	for _, j := range s.jobs.List() {
		j.Lock()
		switch j.state {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
		j.Unlock()
	}
	return queued, running
}

// jobWorker is one slot of the bounded job pool: it pops queued jobs
// until the server shuts down.
func (s *Server) jobWorker() {
	defer s.WG.Done()
	for {
		select {
		case <-s.Ctx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one sweep job end to end: transition to running,
// evaluate the grid with the server's shared derivation cache and the
// job's progress counter, then settle the terminal state.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.Ctx)
	defer cancel()
	if !j.Start(cancel, time.Now()) { // cancelled while queued
		return
	}

	opts := j.opts
	opts.Cache = s.cache
	opts.Progress = func(done, _ int) {
		j.Lock()
		j.AdvanceLocked(done)
		j.Unlock()
	}
	res, err := sweep.RunContext(ctx, j.axes, j.gen, opts)
	if res != nil && res.Stats.Batches > 0 {
		s.Metrics.Add(metricBatches, "", int64(res.Stats.Batches))
		s.Metrics.Add(metricBatchPoints, "", int64(res.Stats.BatchedPoints))
		s.Metrics.Add(metricBatchLanes, "", int64(res.Stats.Batches*opts.BatchWidth))
	}
	if res != nil && res.Stats.SimulatedPoints+res.Stats.PredictedPoints > 0 {
		s.Metrics.Add(metricSimulated, "", int64(res.Stats.SimulatedPoints))
		s.Metrics.Add(metricPredicted, "", int64(res.Stats.PredictedPoints))
		for _, pr := range res.Points {
			if pr.Source != sweep.SourcePredicted {
				continue
			}
			// The observed error when sample_verify measured one, the
			// declared bound otherwise.
			e := pr.PredBound
			if opts.Sample.Verify {
				e = pr.PredObserved
			}
			s.predErrors.Observe(e)
		}
	}

	var terminal JobState
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Cancelled via DELETE or by server shutdown; the partial
		// result (completed points keep their stats) stays readable.
		terminal = JobCancelled
	case res == nil:
		terminal = JobFailed
	default:
		// Point-level failures are not a job-level failure: the per-
		// point errors travel in the results.
		terminal = JobDone
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	j.Lock()
	j.res = res
	j.settleLocked(terminal, errMsg, time.Now()) // OnSettle counts the job
	j.Unlock()
}
