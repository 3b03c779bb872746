package serve

import (
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
// engine's inputs, shared by the job path (POST /v1/sweeps), the
// distributed chunk path (POST /v1/chunks) and the coordinator
// (internal/shard) — every consumer applies exactly the validation and
// option mapping a single-process job would, which is what keeps a
// sharded sweep bit-identical to a local one.
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
// SweepPlan ready for sweep.Run, sweep.RunIndices or distributed
// planning.
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

// prepareSweep is CompileSweep under this server's configured defaults.
func (s *Server) prepareSweep(req SweepRequest) (*SweepPlan, *RequestError) {
	return CompileSweep(req, SweepDefaults{
		Workers:       s.cfg.SweepWorkers,
		BatchWidth:    s.cfg.SweepBatchWidth,
		MaxGridPoints: s.cfg.MaxGridPoints,
	})
}

// handleSweepCreate serves POST /v1/sweeps: validate, then queue the
// job and answer 202 with its lifecycle snapshot.
func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) *RequestError {
	var req SweepRequest
	if aerr := DecodeJSON(w, r, &req); aerr != nil {
		return aerr
	}
	plan, aerr := s.prepareSweep(req)
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
	if aerr := s.admitPoints(w, r, plan.Total); aerr != nil {
		s.quotas.releaseJob(caller)
		return aerr
	}
	j := &job{
		Lifecycle: Lifecycle{
			Engine:   plan.Engine,
			Scenario: plan.Scenario,
			Total:    plan.Total,
			Created:  time.Now(),
			// Count every terminal state exactly once, wherever the job
			// settles (worker, queued-cancel, shutdown drain) — and
			// return the caller's concurrent-job quota slot there, the
			// single point every settle path funnels through.
			OnSettle: func(st JobState, _ string, _ time.Time) {
				s.quotas.releaseJob(caller)
				s.Metrics.Add(metricJobs, fmt.Sprintf(`state=%q`, st.String()), 1)
			},
		},
		axes: plan.Axes,
		gen:  plan.Gen,
		opts: plan.Opts,
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
