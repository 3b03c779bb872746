package serve

import (
	"context"
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

// defaultEngine is the engine a request that names none runs.
const defaultEngine = "equivalent"

// lookupEngine resolves a request's engine name.
func lookupEngine(name string) (engine.Engine, *RequestError) {
	if name == "" {
		name = defaultEngine
	}
	eng, err := engine.Lookup(name)
	if err != nil {
		return nil, requestErrorf(http.StatusBadRequest, CodeUnknownEngine, "%v", err)
	}
	return eng, nil
}

// resolve validates what /v1/run and /v1/sweeps share: the engine
// name, the model source — a registered scenario or an inline
// architecture spec, never both — and the parameter names.
func resolve(engineName, scenarioName string, rawArch []byte, params map[string]int64) (engine.Engine, zoo.Source, *RequestError) {
	inline := hasArchitecture(rawArch)
	if inline && scenarioName != "" {
		return nil, zoo.Source{}, requestErrorf(http.StatusBadRequest, CodeInvalidArchitecture,
			"scenario and architecture are mutually exclusive")
	}
	eng, aerr := lookupEngine(engineName)
	if aerr != nil {
		return nil, zoo.Source{}, aerr
	}
	var src zoo.Source
	if inline {
		spec, aerr := decodeArchitecture(rawArch)
		if aerr != nil {
			return nil, zoo.Source{}, aerr
		}
		src = spec.Source()
	} else {
		sc, err := zoo.LookupScenario(scenarioName)
		if err != nil {
			return nil, zoo.Source{}, requestErrorf(http.StatusBadRequest, CodeUnknownScenario, "%v", err)
		}
		src = sc.Source()
	}
	if err := src.CheckParams(params); err != nil {
		return nil, zoo.Source{}, requestErrorf(http.StatusBadRequest, CodeUnknownParam, "%v", err)
	}
	return eng, src, nil
}

// hybridGroup resolves the abstraction group for the hybrid engine: the
// request's explicit group wins, then the source's canonical group;
// sources without one (e.g. randomized structures, specs declaring no
// group) require the explicit group.
func hybridGroup(eng engine.Engine, src zoo.Source, requested []string, p zoo.Params) ([]string, *RequestError) {
	if eng.Name() != "hybrid" || len(requested) > 0 {
		return requested, nil
	}
	if g := src.Group(p); g != nil {
		return g, nil
	}
	return nil, requestErrorf(http.StatusBadRequest, CodeMissingGroup,
		"%v has no canonical hybrid group; set options.group", src)
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

// handleRun serves POST /v1/run: decode, resolve the engine and the
// model source (scenario or inline architecture), evaluate
// synchronously on the caller's request context (a dropped connection
// cancels the run at the engine's granularity), and answer with the
// unified result plus a cache snapshot.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) *RequestError {
	var req RunRequest
	if aerr := DecodeJSON(w, r, &req); aerr != nil {
		return aerr
	}
	eng, src, aerr := resolve(req.Engine, req.Scenario, req.Architecture, req.Params)
	if aerr != nil {
		return aerr
	}
	pm := zoo.ParamMap(req.Params)
	group, aerr := hybridGroup(eng, src, req.Options.Group, pm)
	if aerr != nil {
		return aerr
	}
	a, err := src.Build(pm)
	if err != nil {
		if src.Inline {
			// A resolved-value violation the spec's structural check
			// cannot see (e.g. a binding driving a speed to zero) is the
			// request's fault.
			return requestErrorf(http.StatusBadRequest, CodeInvalidArchitecture, "%v", err)
		}
		return requestErrorf(http.StatusUnprocessableEntity, CodeRunFailed, "%v", err)
	}
	if aerr := s.admitPoints(w, r, 1); aerr != nil {
		return aerr
	}

	opts := req.Options.engineOptions(group)
	opts.Cache = s.cache
	res, err := runEngine(r.Context(), eng, a, opts)
	if err != nil {
		return evalError(err, "run", requestErrorf(http.StatusUnprocessableEntity, CodeRunFailed, "%v", err))
	}
	s.Metrics.Add(metricRuns, fmt.Sprintf(`engine=%q`, eng.Name()), 1)
	hits, misses := s.cache.Stats()
	resp := RunResponse{
		Engine: eng.Name(),
		Result: resultJSON(res),
		Cache:  CacheStats{Shapes: s.cache.Shapes(), Hits: hits, Misses: misses},
	}
	if src.Inline {
		resp.Architecture = src.Name
	} else {
		resp.Scenario = src.Name
	}
	WriteJSON(w, http.StatusOK, resp)
	return nil
}
