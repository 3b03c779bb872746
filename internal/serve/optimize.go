package serve

// POST /v1/optimize: the design-space optimizer (internal/optimize)
// as a service. The request carries an inline architecture whose
// declared parameter values span the design space, an objective metric
// and optional area/power budgets; the response is the Pareto front
// computed from exactly-simulated points, with per-point provenance.
// Evaluation shares the process-wide derivation cache with /v1/run and
// /v1/sweeps — an optimization over one structure rebinds one cached
// temporal dependency graph across its whole search.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"dyncomp/internal/optimize"
)

// OptimizeConstraint is one platform budget on the wire: the analytic
// cost metric ("area" or "power") must not exceed max.
type OptimizeConstraint struct {
	Metric string  `json:"metric"`
	Max    float64 `json:"max"`
}

// OptimizeOptions is the wire form of the optimizer knobs.
type OptimizeOptions struct {
	// Workers / BatchWidth configure point evaluation as in SweepOptions
	// (0: the server defaults).
	Workers    int `json:"workers,omitempty"`
	BatchWidth int `json:"batch_width,omitempty"`
	// Budget caps the exactly simulated points (0: no cap); an exhausted
	// budget returns the partial front with converged false.
	Budget int `json:"budget,omitempty"`
	// Exhaustive forces brute-force simulation of every feasible point.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Group is the hybrid engine's abstraction group (empty: the spec's
	// canonical group).
	Group []string `json:"group,omitempty"`
}

// OptimizeRequest is the body of POST /v1/optimize. Architecture is
// required — the optimizer searches a spec's declared parameter
// values; there is nothing to optimize about a fixed scenario name.
type OptimizeRequest struct {
	Engine       string               `json:"engine,omitempty"` // default "equivalent"
	Architecture json.RawMessage      `json:"architecture"`
	Objective    string               `json:"objective,omitempty"` // default "cycle_mean"
	Constraints  []OptimizeConstraint `json:"constraints,omitempty"`
	Options      OptimizeOptions      `json:"options"`
}

// OptimizePoint is one Pareto-optimal design on the wire.
type OptimizePoint struct {
	Index     int              `json:"index"`
	Params    map[string]int64 `json:"params"`
	Objective float64          `json:"objective"`
	Area      float64          `json:"area,omitempty"`
	Power     float64          `json:"power,omitempty"`
	Origin    string           `json:"origin"` // seed | refined | exhaustive
}

// OptimizeResponse is the body of a successful POST /v1/optimize.
type OptimizeResponse struct {
	Engine       string          `json:"engine"`
	Architecture string          `json:"architecture"`
	Objective    string          `json:"objective"`
	Front        []OptimizePoint `json:"front"`
	GridPoints   int             `json:"grid_points"`
	Feasible     int             `json:"feasible"`
	Simulated    int             `json:"simulated"`
	Converged    bool            `json:"converged"`
	Exhaustive   bool            `json:"exhaustive"`
	Cache        CacheStats      `json:"cache"`
}

// handleOptimize serves POST /v1/optimize synchronously on the
// caller's request context (optimization runs are sweep-sized, not
// grid-sized: the whole point is simulating few points).
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) *RequestError {
	var req OptimizeRequest
	if aerr := DecodeJSON(w, r, &req); aerr != nil {
		return aerr
	}
	if !hasArchitecture(req.Architecture) {
		return requestErrorf(http.StatusBadRequest, CodeInvalidArchitecture,
			"an inline architecture is required")
	}
	eng, aerr := lookupEngine(req.Engine)
	if aerr != nil {
		return aerr
	}
	spec, aerr := decodeArchitecture(req.Architecture)
	if aerr != nil {
		return aerr
	}
	cons := make([]optimize.Constraint, 0, len(req.Constraints))
	for _, c := range req.Constraints {
		cons = append(cons, optimize.Constraint{Metric: c.Metric, Max: c.Max})
	}
	if err := optimize.Validate(spec, req.Objective, cons); err != nil {
		code := CodeInvalidAxes
		switch {
		case errors.Is(err, optimize.ErrObjective):
			code = CodeInvalidObjective
		case errors.Is(err, optimize.ErrConstraint):
			code = CodeInvalidConstraint
		}
		return requestErrorf(http.StatusBadRequest, code, "%v", err)
	}
	if req.Options.Budget < 0 {
		return requestErrorf(http.StatusBadRequest, CodeBadJSON,
			"options.budget must be non-negative, got %d", req.Options.Budget)
	}
	// Bound the design space like a sweep grid: the declared value lists
	// span it.
	points := 1
	for i := range spec.Parameters {
		if n := len(spec.Parameters[i].Values); n > 0 {
			points *= n
			if points > s.cfg.MaxGridPoints {
				return requestErrorf(http.StatusBadRequest, CodeGridTooLarge,
					"design space exceeds %d points", s.cfg.MaxGridPoints)
			}
		}
	}
	// Charge the full design space against the caller's point quota: the
	// optimizer may simulate any subset of it.
	if aerr := s.admitPoints(w, r, points); aerr != nil {
		return aerr
	}
	group, aerr := hybridGroup(eng, spec.Source(), req.Options.Group, nil)
	if aerr != nil {
		return aerr
	}
	workers := req.Options.Workers
	if workers <= 0 {
		workers = s.cfg.SweepWorkers
	}
	batchWidth := req.Options.BatchWidth
	if batchWidth <= 0 {
		batchWidth = s.cfg.SweepBatchWidth
	}

	res, err := optimize.Run(r.Context(), spec, optimize.Options{
		Engine:      eng.Name(),
		Workers:     workers,
		BatchWidth:  batchWidth,
		Objective:   req.Objective,
		Constraints: cons,
		Budget:      req.Options.Budget,
		Exhaustive:  req.Options.Exhaustive,
		Group:       group,
		Cache:       s.cache,
	})
	if err != nil {
		return evalError(err, "optimization", requestErrorf(http.StatusUnprocessableEntity, CodeRunFailed, "%v", err))
	}
	s.Metrics.Add(metricOptimize, fmt.Sprintf(`engine=%q`, eng.Name()), 1)

	front := make([]OptimizePoint, 0, len(res.Front))
	for _, p := range res.Front {
		front = append(front, OptimizePoint{
			Index:     p.Index,
			Params:    p.Params,
			Objective: p.Objective,
			Area:      p.Area,
			Power:     p.Power,
			Origin:    p.Origin,
		})
	}
	hits, misses := s.cache.Stats()
	WriteJSON(w, http.StatusOK, OptimizeResponse{
		Engine:       eng.Name(),
		Architecture: spec.Name,
		Objective:    res.Objective,
		Front:        front,
		GridPoints:   res.GridPoints,
		Feasible:     res.Feasible,
		Simulated:    res.Simulated,
		Converged:    res.Converged,
		Exhaustive:   res.Exhaustive,
		Cache:        CacheStats{Shapes: s.cache.Shapes(), Hits: hits, Misses: misses},
	})
	return nil
}
