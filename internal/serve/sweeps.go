package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"dyncomp/internal/model"
	"dyncomp/internal/sim"
	"dyncomp/internal/sweep"
	"dyncomp/internal/zoo"
)

// layeredParams answers parameter lookups from the sweep point first and
// the request's fixed params second, so a sweep request can pin
// parameters it does not sweep (an axis of the same name wins).
type layeredParams struct {
	p     sweep.Point
	fixed zoo.ParamMap
}

func (l layeredParams) Lookup(name string) (int64, bool) {
	if v, ok := l.p.Lookup(name); ok {
		return v, ok
	}
	return l.fixed.Lookup(name)
}

// SweepPlan is a validated sweep request compiled into the sweep
// engine's inputs, shared by every sweep job (NewSweepJob) and the
// chunk endpoint (POST /v1/chunks) — every consumer applies exactly the
// validation and option mapping a single-process sweep would, which is
// what keeps a sharded sweep bit-identical to a local one.
type SweepPlan struct {
	Engine   string
	Scenario string
	Axes     []sweep.Axis
	Opts     sweep.Options
	Gen      sweep.Generator
	Total    int
}

// SweepDefaults supplies the deployment-level defaults CompileSweep
// applies to request fields left at zero. The zero value picks the same
// production-lean defaults a zero serve.Config would.
type SweepDefaults struct {
	// Workers fills options.workers (default GOMAXPROCS).
	Workers int
	// BatchWidth fills options.batch_width (default 0: per-point).
	BatchWidth int
	// MaxGridPoints rejects grids beyond this many points (default
	// 100000).
	MaxGridPoints int
}

// CompileSweep validates everything about a sweep request that can fail
// fast — engine, model source (scenario or inline architecture spec),
// parameters, axes, grid size, group, options — and compiles it into a
// SweepPlan ready for sweep.Run, sweep.RunIndices or chunk planning.
func CompileSweep(req SweepRequest, d SweepDefaults) (*SweepPlan, *RequestError) {
	if d.Workers <= 0 {
		d.Workers = runtime.GOMAXPROCS(0)
	}
	if d.BatchWidth < 0 {
		d.BatchWidth = 0
	}
	if d.MaxGridPoints <= 0 {
		d.MaxGridPoints = 100000
	}
	eng, src, aerr := resolve(req.Engine, req.Scenario, req.Architecture, req.Params)
	if aerr != nil {
		return nil, aerr
	}
	axes, err := sweepAxes(req.Axes)
	if err != nil {
		return nil, requestErrorf(http.StatusBadRequest, CodeInvalidAxes, "%v", err)
	}
	// Axis names are model parameters too: a typoed axis would sweep a
	// knob the builder never reads, silently evaluating one point N
	// times.
	axisParams := map[string]int64{}
	for _, ax := range axes {
		axisParams[ax.Name] = ax.Values[0]
	}
	if err := src.CheckParams(axisParams); err != nil {
		return nil, requestErrorf(http.StatusBadRequest, CodeInvalidAxes, "%v", err)
	}
	points := 1
	for _, ax := range axes {
		points *= len(ax.Values)
		if points > d.MaxGridPoints {
			return nil, requestErrorf(http.StatusBadRequest, CodeGridTooLarge,
				"grid exceeds %d points", d.MaxGridPoints)
		}
	}
	fixed := zoo.ParamMap(req.Params)
	if _, aerr := hybridGroup(eng, src, req.Options.Group, fixed); aerr != nil {
		return nil, aerr
	}

	o := req.Options
	if o.BatchWidth < 0 {
		return nil, requestErrorf(http.StatusBadRequest, CodeBadJSON,
			"options.batch_width must be non-negative, got %d", o.BatchWidth)
	}
	if o.SampleTolerance < 0 {
		return nil, requestErrorf(http.StatusBadRequest, CodeInvalidSample,
			"options.sample_tolerance must be non-negative, got %g", o.SampleTolerance)
	}
	if o.SampleBudget < 0 {
		return nil, requestErrorf(http.StatusBadRequest, CodeInvalidSample,
			"options.sample_budget must be non-negative, got %d", o.SampleBudget)
	}
	if o.Workers <= 0 {
		o.Workers = d.Workers
	}
	if o.BatchWidth == 0 {
		o.BatchWidth = d.BatchWidth
	}
	opts := sweep.Options{
		Workers:    o.Workers,
		Engine:     eng.Name(),
		Baseline:   o.Baseline,
		Limit:      sim.Time(o.LimitNs),
		BatchWidth: o.BatchWidth,
		Sample: sweep.SampleOptions{
			Tolerance: o.SampleTolerance,
			Budget:    o.SampleBudget,
			Verify:    o.SampleVerify,
		},
	}
	opts.Derive.Reduce = o.Reduce
	if len(o.Group) > 0 {
		opts.Group = o.Group
	} else if eng.Name() == "hybrid" {
		// Per point: axes may change the structure and with it the
		// canonical group (e.g. sweeping the fork-join worker count).
		opts.GroupFor = func(p sweep.Point) []string {
			return src.Group(layeredParams{p: p, fixed: fixed})
		}
	}
	return &SweepPlan{
		Engine:   eng.Name(),
		Scenario: src.Name,
		Axes:     axes,
		Opts:     opts,
		Total:    points,
		Gen: func(p sweep.Point) (*model.Architecture, error) {
			return src.Build(layeredParams{p: p, fixed: fixed})
		},
	}, nil
}

// defaults are the sweep-compilation defaults of this server's
// configuration.
func (s *Server) defaults() SweepDefaults {
	return SweepDefaults{
		Workers:       s.cfg.SweepWorkers,
		BatchWidth:    s.cfg.SweepBatchWidth,
		MaxGridPoints: s.cfg.MaxGridPoints,
	}
}

// handleSweepCreate serves POST /v1/sweeps: validate, then queue the
// job and answer 202 with its lifecycle snapshot.
func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) *RequestError {
	var req SweepRequest
	if aerr := DecodeJSON(w, r, &req); aerr != nil {
		return aerr
	}
	j, aerr := NewSweepJob(req, s.defaults(), 0, time.Now())
	if aerr != nil {
		return aerr
	}
	caller := callerID(r)
	if !s.quotas.reserveJob(caller, s.cfg.QuotaJobs) {
		s.reject("quota_jobs")
		w.Header().Set("Retry-After", "1")
		return requestErrorf(http.StatusTooManyRequests, CodeQuotaExceeded,
			"caller %q already has %d jobs in flight", caller, s.cfg.QuotaJobs)
	}
	if aerr := s.admitPoints(w, r, j.Total); aerr != nil {
		s.quotas.releaseJob(caller)
		return aerr
	}
	j.cache = s.cache
	// Count every terminal state exactly once, wherever the job settles
	// (worker, queued-cancel, shutdown drain) — and return the caller's
	// concurrent-job quota slot there, the single point every settle
	// path funnels through.
	j.OnSettle = func(st JobState, _ string, _ time.Time) {
		s.quotas.releaseJob(caller)
		s.Metrics.Add(metricJobs, fmt.Sprintf(`state=%q`, st.String()), 1)
	}
	if err := s.jobs.Add(j, s.enqueue); err != nil {
		s.quotas.releaseJob(caller) // never enqueued: OnSettle will not run
		if errors.Is(err, errShuttingDown) {
			return requestErrorf(http.StatusServiceUnavailable, CodeUnavailable, "%v", err)
		}
		w.Header().Set("Retry-After", "1")
		return requestErrorf(http.StatusTooManyRequests, CodeQueueFull, "%v", err)
	}
	WriteJSON(w, http.StatusAccepted, j.Snapshot())
	return nil
}

// enqueue hands a job to the worker pool without blocking; a full queue
// refuses it.
func (s *Server) enqueue(j *SweepJob) bool {
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
// and runs each as a fleet of one — options.workers chunks in flight,
// each evaluated in process by runChunk — until the server shuts down.
func (s *Server) jobWorker() {
	defer s.WG.Done()
	for {
		select {
		case <-s.Ctx.Done():
			return
		case j := <-s.queue:
			j.Run(s.Ctx, j.plan.Opts.Workers, s.runChunk, false)
		}
	}
}

// runChunk is the chunk runner of this server's own jobs: the
// evaluation POST /v1/chunks performs for a coordinator, merged into
// the job, plus the batch and sampling counters.
func (s *Server) runChunk(ctx context.Context, j *SweepJob, ci int) {
	plan := j.plan
	if plan.Opts.Sample.Enabled() {
		// The one chunk is the whole grid, so the sampler's progress is
		// the job's: forward it as points resolve.
		sampled := *plan
		sampled.Opts.Progress = func(done, _ int) {
			j.Lock()
			j.advanceLocked(done)
			j.Unlock()
		}
		plan = &sampled
	}
	res, err := s.evalChunk(ctx, plan, j.Chunk(ci).Indices, j.takeArchs(ci))
	switch {
	case ctx.Err() != nil:
		return
	case err != nil:
		j.FailChunk(ci, err)
		return
	}
	if j.plan.Opts.Sample.Enabled() {
		j.Lock()
		j.sampled = &res.Stats
		j.Unlock()
	}
	j.ApplyChunk(ci, chunkResponse(res))

	st := res.Stats
	if st.Batches > 0 {
		s.Metrics.Add(metricBatches, "", int64(st.Batches))
		s.Metrics.Add(metricBatchPoints, "", int64(st.BatchedPoints))
		s.Metrics.Add(metricBatchLanes, "", int64(st.Batches*j.plan.Opts.BatchWidth))
	}
	if st.SimulatedPoints+st.PredictedPoints > 0 {
		s.Metrics.Add(metricSimulated, "", int64(st.SimulatedPoints))
		s.Metrics.Add(metricPredicted, "", int64(st.PredictedPoints))
		for _, pr := range res.Points {
			if pr.Source != sweep.SourcePredicted {
				continue
			}
			// The observed error when sample_verify measured one, the
			// declared bound otherwise.
			e := pr.PredBound
			if j.plan.Opts.Sample.Verify {
				e = pr.PredObserved
			}
			s.predErrors.Observe(e)
		}
	}
}
