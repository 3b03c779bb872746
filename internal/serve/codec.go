package serve

// The wire types in this file deliberately duplicate the library's
// result/stats structs instead of marshalling them directly: the HTTP
// schema is a published contract (docs/SERVING.md, pinned by
// codec_test.go) and must not shift when an internal struct gains or
// renames a field. The conversion funcs at the bottom are the single
// place the two worlds meet.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dyncomp/internal/engine"
	"dyncomp/internal/sweep"
)

// maxBodyBytes bounds every decoded request body; the grids and option
// sets this API accepts are tiny, so anything larger is a client error.
const maxBodyBytes = 1 << 20

// RunOptions is the wire form of the engine options a caller may set on
// a single run. It maps onto engine.Options; fields an engine has no
// use for are ignored by it, exactly as in the library.
type RunOptions struct {
	// LimitNs bounds the simulated time in nanoseconds (0: run to
	// completion).
	LimitNs int64 `json:"limit_ns,omitempty"`
	// IterLimit bounds the evolution to iterations [0, IterLimit).
	IterLimit int `json:"iter_limit,omitempty"`
	// WindowK and Confidence are accepted and ignored. They tuned the
	// adaptive engine's steady-state detector, which no longer exists;
	// the wire keeps them so existing requests stay valid.
	WindowK    int     `json:"window_k,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// Group names the functions the hybrid engine abstracts; empty
	// selects the scenario's canonical group.
	Group []string `json:"group,omitempty"`
	// Reduce prunes value-redundant arcs from derived graphs.
	Reduce bool `json:"reduce,omitempty"`
}

// RunRequest is the body of POST /v1/run: one engine × model
// evaluation. The model is either a registered scenario by name or an
// inline JSON architecture (the two are mutually exclusive). Params
// supplies the model's named integer parameters (absent names fall
// back to defaults, unknown names are rejected).
type RunRequest struct {
	Engine   string `json:"engine,omitempty"` // default "equivalent"
	Scenario string `json:"scenario,omitempty"`
	// Architecture is an inline architecture spec in the open JSON
	// model format (docs/MODEL_FORMAT.md, internal/archjson version 1),
	// validated and built through the same model.Validate path as the
	// compiled-in scenarios.
	Architecture json.RawMessage  `json:"architecture,omitempty"`
	Params       map[string]int64 `json:"params,omitempty"`
	Options      RunOptions       `json:"options"`
}

// EngineResult is the wire form of a completed run, mirroring
// engine.Result field for field (minus the trace, which is not served).
type EngineResult struct {
	Activations int64 `json:"activations"`
	Events      int64 `json:"events"`
	FinalTimeNs int64 `json:"final_time_ns"`
	WallNs      int64 `json:"wall_ns"`
	Iterations  int   `json:"iterations,omitempty"`
	GraphNodes  int   `json:"graph_nodes,omitempty"`
}

// CacheStats is a snapshot of the server's process-wide derivation
// cache: Misses counts derivations actually performed (== distinct
// structural shapes requested), Hits requests served by rebinding an
// existing template.
type CacheStats struct {
	Shapes int   `json:"shapes"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// RunResponse is the body of a successful POST /v1/run. Scenario names
// the registered scenario that ran; Architecture the inline spec (by
// its declared name) — exactly one of the two is set.
type RunResponse struct {
	Engine       string       `json:"engine"`
	Scenario     string       `json:"scenario,omitempty"`
	Architecture string       `json:"architecture,omitempty"`
	Result       EngineResult `json:"result"`
	Cache        CacheStats   `json:"cache"`
}

// Axis is one dimension of a sweep grid on the wire.
type Axis struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

// SweepOptions is the wire form of the per-job sweep configuration.
type SweepOptions struct {
	// Workers is the per-job worker-pool size (0: the server default).
	Workers int `json:"workers,omitempty"`
	// WindowK, Confidence, Group, Reduce and LimitNs are the per-point
	// engine options, as in RunOptions (WindowK and Confidence are
	// accepted and ignored).
	WindowK    int      `json:"window_k,omitempty"`
	Confidence float64  `json:"confidence,omitempty"`
	Group      []string `json:"group,omitempty"`
	Reduce     bool     `json:"reduce,omitempty"`
	LimitNs    int64    `json:"limit_ns,omitempty"`
	// Baseline pairs every point with a reference-executor run and
	// fills the per-point event ratio and speed-up.
	Baseline bool `json:"baseline,omitempty"`
	// BatchWidth groups structurally identical grid points into batched
	// lane evaluations of up to this many points (engines without the
	// capability fall back per point). 0 selects the server default;
	// negative is rejected.
	BatchWidth int `json:"batch_width,omitempty"`
	// SampleTolerance, when positive, enables surrogate-guided sampling:
	// only an actively chosen subset of the grid is simulated exactly
	// and the rest is predicted within this relative tolerance, flagged
	// per point. Negative is rejected; distributed chunk evaluation
	// (POST /v1/chunks) rejects sampling outright.
	SampleTolerance float64 `json:"sample_tolerance,omitempty"`
	// SampleBudget caps the exactly simulated points of a sampled sweep
	// (0: no cap; negative rejected).
	SampleBudget int `json:"sample_budget,omitempty"`
	// SampleVerify re-simulates every predicted point after convergence,
	// replaces the predictions with the exact metrics and reports the
	// observed error per point and in the stats.
	SampleVerify bool `json:"sample_verify,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps: an asynchronous grid
// evaluation of a registered scenario or an inline JSON architecture
// (mutually exclusive, as in RunRequest; axes over an inline spec must
// name its declared parameters). Axes spans the grid; Params fixes
// additional parameters that are not swept (an axis of the same name
// wins).
type SweepRequest struct {
	Engine       string           `json:"engine,omitempty"` // default "equivalent"
	Scenario     string           `json:"scenario,omitempty"`
	Architecture json.RawMessage  `json:"architecture,omitempty"`
	Axes         []Axis           `json:"axes"`
	Params       map[string]int64 `json:"params,omitempty"`
	Options      SweepOptions     `json:"options"`
}

// Job is the wire form of a sweep job's lifecycle state, returned by
// POST /v1/sweeps (202), GET /v1/sweeps and embedded in JobResult.
// State is one of "queued", "running", "cancelling", "done", "failed",
// "cancelled"; Done/Total report point-level progress.
type Job struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Engine   string     `json:"engine"`
	Scenario string     `json:"scenario"`
	Done     int        `json:"done"`
	Total    int        `json:"total"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// Aggregate is the wire form of sweep.Aggregate.
type Aggregate struct {
	N       int     `json:"n"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Geomean float64 `json:"geomean"`
}

// SweepStats is the wire form of sweep.Stats.
type SweepStats struct {
	Points         int     `json:"points"`
	Failed         int     `json:"failed"`
	Shapes         int     `json:"shapes"`
	DeriveCalls    int64   `json:"derive_calls"`
	CacheHits      int64   `json:"cache_hits"`
	WallNs         int64   `json:"wall_ns"`
	Batches        int     `json:"batches,omitempty"`
	BatchedPoints  int     `json:"batched_points,omitempty"`
	BatchOccupancy float64 `json:"batch_occupancy,omitempty"`
	// SimulatedPoints / PredictedPoints split a sampled sweep's grid;
	// MaxPredError is the worst prediction error bound — or, under
	// sample_verify, the worst observed error.
	SimulatedPoints int        `json:"simulated_points,omitempty"`
	PredictedPoints int        `json:"predicted_points,omitempty"`
	MaxPredError    float64    `json:"max_pred_error,omitempty"`
	SpeedUp         *Aggregate `json:"speed_up,omitempty"`
	EventRatio      *Aggregate `json:"event_ratio,omitempty"`
}

// SweepPoint is the wire form of one evaluated grid point.
type SweepPoint struct {
	Params     map[string]int64 `json:"params"`
	Result     *EngineResult    `json:"result,omitempty"`
	EventRatio float64          `json:"event_ratio,omitempty"`
	SpeedUp    float64          `json:"speed_up,omitempty"`
	// Source flags how a sampled sweep obtained this point ("simulated"
	// or "predicted"); empty in exhaustive sweeps. PredBound is the
	// surrogate's relative error bound on a predicted point,
	// PredObserved the observed error under sample_verify.
	Source       string  `json:"source,omitempty"`
	PredBound    float64 `json:"pred_bound,omitempty"`
	PredObserved float64 `json:"pred_observed,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// JobResult is the body of GET /v1/sweeps/{id}: the job plus — once the
// job reached a terminal state — the sweep statistics and per-point
// results (also the partial ones of a cancelled job).
type JobResult struct {
	Job
	Stats  *SweepStats  `json:"stats,omitempty"`
	Points []SweepPoint `json:"points,omitempty"`
}

// Error is the uniform error envelope: a stable machine-readable code
// plus a human-readable message.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse wraps every non-2xx JSON body.
type ErrorResponse struct {
	Err Error `json:"error"`
}

// Error codes returned by the API.
const (
	CodeBadJSON         = "bad_json"
	CodeUnknownEngine   = "unknown_engine"
	CodeUnknownScenario = "unknown_scenario"
	CodeUnknownParam    = "unknown_param"
	CodeInvalidAxes     = "invalid_axes"
	CodeInvalidSample   = "invalid_sample"
	CodeInvalidIndices  = "invalid_indices"
	CodeGridTooLarge    = "grid_too_large"
	CodeMissingGroup    = "missing_group"
	CodeRunFailed       = "run_failed"
	CodeJobNotFound     = "job_not_found"
	CodeJobTerminal     = "job_terminal"
	CodeQueueFull       = "queue_full"
	CodeUnavailable     = "unavailable"
	CodeBodyTooLarge    = "body_too_large"
	// Inline-architecture codes: a spec that fails decoding, validation
	// or building answers invalid_architecture; a spec with a version
	// field this server does not speak answers unsupported_version (so a
	// newer client learns the format gap, not a generic validation
	// failure).
	CodeInvalidArchitecture = "invalid_architecture"
	CodeUnsupportedVersion  = "unsupported_version"
	// Optimizer codes: unknown objective metric / malformed constraint
	// on POST /v1/optimize.
	CodeInvalidObjective  = "invalid_objective"
	CodeInvalidConstraint = "invalid_constraint"
	// Admission-control codes (docs/OPERATIONS.md): a missing or unknown
	// bearer token answers unauthorized; a caller over its concurrent-job
	// or grid-point quota answers quota_exceeded with Retry-After; a
	// server past its in-flight bound sheds with overloaded and
	// Retry-After; a request that outran -request-timeout answers
	// deadline_exceeded; a recovered handler panic answers internal.
	CodeUnauthorized     = "unauthorized"
	CodeQuotaExceeded    = "quota_exceeded"
	CodeOverloaded       = "overloaded"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeInternal         = "internal"
)

// engineOptions maps wire run options onto the unified engine options.
func (o RunOptions) engineOptions(group []string) engine.Options {
	opts := engine.Options{
		LimitNs:       o.LimitNs,
		IterLimit:     o.IterLimit,
		AbstractGroup: group,
	}
	opts.Derive.Reduce = o.Reduce
	return opts
}

// resultJSON converts a unified engine result to its wire form.
func resultJSON(r *engine.Result) EngineResult {
	return EngineResult{
		Activations: r.Activations,
		Events:      r.Events,
		FinalTimeNs: r.FinalTimeNs,
		WallNs:      r.WallNs,
		Iterations:  r.Iterations,
		GraphNodes:  r.GraphNodes,
	}
}

// sweepAxes converts and validates wire axes.
func sweepAxes(axes []Axis) ([]sweep.Axis, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("no axes")
	}
	out := make([]sweep.Axis, len(axes))
	seen := map[string]bool{}
	for i, ax := range axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("axis %d has no name", i)
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("axis %q has no values", ax.Name)
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
		out[i] = sweep.Axis{Name: ax.Name, Values: ax.Values}
	}
	return out, nil
}

// statsJSON converts sweep statistics to their wire form.
func statsJSON(st sweep.Stats) *SweepStats {
	out := &SweepStats{
		Points:         st.Points,
		Failed:         st.Failed,
		Shapes:         st.Shapes,
		DeriveCalls:    st.DeriveCalls,
		CacheHits:      st.CacheHits,
		WallNs:         st.Wall.Nanoseconds(),
		Batches:        st.Batches,
		BatchedPoints:  st.BatchedPoints,
		BatchOccupancy: st.BatchOccupancy,

		SimulatedPoints: st.SimulatedPoints,
		PredictedPoints: st.PredictedPoints,
		MaxPredError:    st.MaxPredError,
	}
	if st.SpeedUp.N > 0 {
		out.SpeedUp = aggregateJSON(st.SpeedUp)
	}
	if st.EventRatio.N > 0 {
		out.EventRatio = aggregateJSON(st.EventRatio)
	}
	return out
}

func aggregateJSON(a sweep.Aggregate) *Aggregate {
	return &Aggregate{N: a.N, Min: a.Min, Max: a.Max, Mean: a.Mean, Geomean: a.Geomean}
}

// pointJSON converts one evaluated grid point to its wire form.
func pointJSON(pr sweep.PointResult) SweepPoint {
	sp := SweepPoint{Params: map[string]int64{}}
	for i, n := range pr.Point.Names {
		sp.Params[n] = pr.Point.Values[i]
	}
	if pr.Err != nil {
		sp.Error = pr.Err.Error()
		return sp
	}
	sp.Result = &EngineResult{
		Activations: pr.Run.Activations,
		Events:      pr.Run.Events,
		FinalTimeNs: pr.Run.FinalTimeNs,
		WallNs:      pr.Run.Wall.Nanoseconds(),
		Iterations:  pr.Run.Iterations,
		GraphNodes:  pr.Run.GraphNodes,
	}
	sp.EventRatio = pr.EventRatio
	sp.SpeedUp = pr.SpeedUp
	sp.Source = pr.Source
	sp.PredBound = pr.PredBound
	sp.PredObserved = pr.PredObserved
	return sp
}

// DecodeJSON strictly decodes a bounded request body into dst: unknown
// fields and trailing garbage answer 400 bad_json, an oversized body
// 413 body_too_large (so a client learns the size limit instead of
// "malformed JSON"). The shard coordinator decodes through it too, so a
// fleet client sees exactly the single-process dialect.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any) *RequestError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return requestErrorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
		}
		return requestErrorf(http.StatusBadRequest, CodeBadJSON, "decoding request: %v", err)
	}
	if dec.More() {
		return requestErrorf(http.StatusBadRequest, CodeBadJSON, "trailing data after JSON body")
	}
	return nil
}

// WriteJSON writes a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// WriteError writes the uniform error envelope.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Err: Error{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
