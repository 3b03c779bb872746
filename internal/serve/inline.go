package serve

// This file is the inline-architecture side of the API: POST /v1/run
// and POST /v1/sweeps accept an "architecture" object — a spec in the
// open JSON model format (internal/archjson, docs/MODEL_FORMAT.md) —
// in place of a registered scenario name. The spec is decoded,
// structurally validated and built through the same model.Validate
// path the compiled-in scenarios use, and the resulting model flows
// into the very same evaluation plumbing: the process-wide derivation
// cache keys on the built model's structural shape, so two inline
// requests carrying the same structure rebind one cached temporal
// dependency graph exactly as repeated scenario requests do.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"dyncomp/internal/archjson"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/sweep"
	"dyncomp/internal/zoo"
)

// hasArchitecture reports whether a request actually carries an inline
// spec — an explicit JSON null counts as absent, like an omitted field.
func hasArchitecture(raw []byte) bool {
	s := strings.TrimSpace(string(raw))
	return s != "" && s != "null"
}

// decodeArchitecture decodes and validates an inline spec, mapping the
// archjson error taxonomy onto the wire codes: oversize specs answer
// 413 like oversize bodies, an unsupported format version gets its own
// code, and everything else is invalid_architecture.
func decodeArchitecture(raw []byte) (*archjson.Spec, *RequestError) {
	spec, err := archjson.Decode(raw)
	if err != nil {
		switch archjson.ErrCode(err) {
		case archjson.CodeTooLarge:
			return nil, requestErrorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "%v", err)
		case archjson.CodeVersion:
			return nil, requestErrorf(http.StatusBadRequest, CodeUnsupportedVersion, "%v", err)
		default:
			return nil, requestErrorf(http.StatusBadRequest, CodeInvalidArchitecture, "%v", err)
		}
	}
	return spec, nil
}

// resolveInline is resolve's counterpart for inline requests: engine
// name, mutual exclusion against a scenario name, spec decoding and
// parameter-name validation.
func resolveInline(engineName, scenarioName string, raw []byte, params map[string]int64) (engine.Engine, *archjson.Spec, *RequestError) {
	if scenarioName != "" {
		return nil, nil, requestErrorf(http.StatusBadRequest, CodeInvalidArchitecture,
			"scenario and architecture are mutually exclusive")
	}
	if engineName == "" {
		engineName = "equivalent"
	}
	eng, err := engine.Lookup(engineName)
	if err != nil {
		return nil, nil, requestErrorf(http.StatusBadRequest, CodeUnknownEngine, "%v", err)
	}
	spec, aerr := decodeArchitecture(raw)
	if aerr != nil {
		return nil, nil, aerr
	}
	if err := spec.CheckParams(params); err != nil {
		return nil, nil, requestErrorf(http.StatusBadRequest, CodeUnknownParam, "%v", err)
	}
	return eng, spec, nil
}

// inlineHybridGroup resolves the hybrid engine's abstraction group for
// an inline spec: the request's explicit group wins, then the spec's
// canonical group (a declared group named "hybrid", or its only one).
func inlineHybridGroup(eng engine.Engine, spec *archjson.Spec, requested []string) ([]string, *RequestError) {
	if eng.Name() != "hybrid" || len(requested) > 0 {
		return requested, nil
	}
	if g := spec.CanonicalGroup(); g != nil {
		return g, nil
	}
	return nil, requestErrorf(http.StatusBadRequest, CodeMissingGroup,
		"architecture %q declares no abstraction group; set options.group", spec.Name)
}

// handleRunInline is POST /v1/run for requests carrying an inline
// architecture: same evaluation, cache and metrics path as a scenario
// run, different model source.
func (s *Server) handleRunInline(w http.ResponseWriter, r *http.Request, req RunRequest) {
	eng, spec, aerr := resolveInline(req.Engine, req.Scenario, req.Architecture, req.Params)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	group, aerr := inlineHybridGroup(eng, spec, req.Options.Group)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	a, err := spec.Build(zoo.ParamMap(req.Params))
	if err != nil {
		// Resolved-value violations the structural check cannot see
		// (e.g. a parameter binding driving a speed to zero).
		WriteError(w, http.StatusBadRequest, CodeInvalidArchitecture, "%v", err)
		return
	}
	if !s.admitPoints(w, r, 1) {
		return
	}

	opts := req.Options.engineOptions(group)
	opts.Cache = s.cache
	res, err := runEngine(r.Context(), eng, a, opts)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			WriteError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
				"run exceeded the request deadline")
			return
		}
		if errors.Is(err, context.Canceled) {
			// The caller went away; there is nobody to answer.
			return
		}
		WriteError(w, http.StatusUnprocessableEntity, CodeRunFailed, "%v", err)
		return
	}
	s.metrics.inc(metricRuns, fmt.Sprintf(`engine=%q`, eng.Name()))
	hits, misses := s.cache.Stats()
	WriteJSON(w, http.StatusOK, RunResponse{
		Engine:       eng.Name(),
		Architecture: spec.Name,
		Result:       resultJSON(res),
		Cache:        CacheStats{Shapes: s.cache.Shapes(), Hits: hits, Misses: misses},
	})
}

// compileSweepInline is CompileSweep for requests carrying an inline
// architecture. Axes must name parameters the spec declares (a typoed
// axis would sweep a knob no expression reads, evaluating one point N
// times); the per-point generator rebuilds the spec under the layered
// point-over-fixed binding exactly like the scenario path.
func compileSweepInline(req SweepRequest, d SweepDefaults) (*SweepPlan, *RequestError) {
	eng, spec, aerr := resolveInline(req.Engine, req.Scenario, req.Architecture, req.Params)
	if aerr != nil {
		return nil, aerr
	}
	axes, err := sweepAxes(req.Axes)
	if err != nil {
		return nil, requestErrorf(http.StatusBadRequest, CodeInvalidAxes, "%v", err)
	}
	axisParams := map[string]int64{}
	for _, ax := range axes {
		axisParams[ax.Name] = ax.Values[0]
	}
	if err := spec.CheckParams(axisParams); err != nil {
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
	group, aerr := inlineHybridGroup(eng, spec, req.Options.Group)
	if aerr != nil {
		return nil, aerr
	}
	opts, aerr := compileSweepOptions(req.Options, d, eng.Name())
	if aerr != nil {
		return nil, aerr
	}
	// Unlike scenarios, whose structure (and canonical group) may change
	// with the swept parameters, an inline spec's function set is static:
	// one group serves every point.
	opts.Group = group

	fixed := zoo.ParamMap(req.Params)
	return &SweepPlan{
		Engine:   eng.Name(),
		Scenario: spec.Name,
		Axes:     axes,
		Opts:     opts,
		Total:    points,
		Gen: func(p sweep.Point) (*model.Architecture, error) {
			return spec.Build(layeredParams{p: p, fixed: fixed})
		},
	}, nil
}
