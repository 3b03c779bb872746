package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/zoo"
)

// RequestError carries a validation failure to the HTTP layer: the
// status to answer with, a stable machine-readable code and a
// human-readable message. It is exported because the distributed
// coordinator (internal/shard) compiles the same wire requests through
// CompileSweep and relays these verbatim to its own callers.
type RequestError struct {
	Status int
	Code   string
	Msg    string
}

func (e *RequestError) Error() string { return e.Msg }

func requestErrorf(status int, code, format string, args ...any) *RequestError {
	return &RequestError{Status: status, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// resolve validates the engine name, scenario name and parameters shared
// by /v1/run and /v1/sweeps, returning the resolved registry entries.
func resolve(engineName, scenarioName string, params map[string]int64) (engine.Engine, zoo.Scenario, zoo.ParamMap, *RequestError) {
	if engineName == "" {
		engineName = "equivalent"
	}
	eng, err := engine.Lookup(engineName)
	if err != nil {
		return nil, zoo.Scenario{}, nil, requestErrorf(http.StatusBadRequest, CodeUnknownEngine, "%v", err)
	}
	sc, err := zoo.LookupScenario(scenarioName)
	if err != nil {
		return nil, zoo.Scenario{}, nil, requestErrorf(http.StatusBadRequest, CodeUnknownScenario, "%v", err)
	}
	pm := zoo.ParamMap(params)
	if err := sc.CheckParams(pm); err != nil {
		return nil, zoo.Scenario{}, nil, requestErrorf(http.StatusBadRequest, CodeUnknownParam, "%v", err)
	}
	return eng, sc, pm, nil
}

// hybridGroup resolves the abstraction group for the hybrid engine: the
// request's explicit group wins, then the scenario's canonical group;
// scenarios without one (e.g. randomized structures) require the
// explicit group.
func hybridGroup(eng engine.Engine, sc zoo.Scenario, requested []string, p zoo.Params) ([]string, *RequestError) {
	if eng.Name() != "hybrid" {
		return requested, nil
	}
	if len(requested) > 0 {
		return requested, nil
	}
	if sc.HybridGroup == nil {
		return nil, requestErrorf(http.StatusBadRequest, CodeMissingGroup,
			"scenario %q has no canonical hybrid group; set options.group", sc.Name)
	}
	return sc.HybridGroup(p), nil
}

// buildArchitecture runs a scenario builder, converting its panics —
// the model layer uses them for invalid configurations — into errors so
// one bad request cannot kill the process.
func buildArchitecture(sc zoo.Scenario, p zoo.Params) (a *model.Architecture, err error) {
	defer func() {
		if r := recover(); r != nil {
			a, err = nil, fmt.Errorf("scenario %q: %v", sc.Name, r)
		}
	}()
	a = sc.Build(p)
	if a == nil {
		return nil, fmt.Errorf("scenario %q built no architecture", sc.Name)
	}
	return a, nil
}

// runEngine executes one engine run with panic confinement, mirroring
// what the sweep worker pool does per point.
func runEngine(ctx context.Context, eng engine.Engine, a *model.Architecture, opts engine.Options) (res *engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("engine %q: panic: %v", eng.Name(), r)
		}
	}()
	return eng.Run(ctx, a, opts)
}

// handleRun serves POST /v1/run: decode, resolve against the two
// registries, evaluate synchronously on the caller's request context
// (a dropped connection cancels the run at the engine's granularity),
// and answer with the unified result plus a cache snapshot.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if aerr := DecodeJSON(w, r, &req); aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	if hasArchitecture(req.Architecture) {
		s.handleRunInline(w, r, req)
		return
	}
	eng, sc, pm, aerr := resolve(req.Engine, req.Scenario, req.Params)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	group, aerr := hybridGroup(eng, sc, req.Options.Group, pm)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	a, err := buildArchitecture(sc, pm)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, CodeRunFailed, "%v", err)
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
		Engine:   eng.Name(),
		Scenario: sc.Name,
		Result:   resultJSON(res),
		Cache:    CacheStats{Shapes: s.cache.Shapes(), Hits: hits, Misses: misses},
	})
}
