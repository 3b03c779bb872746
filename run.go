package dyncomp

import (
	"context"

	"dyncomp/internal/derive"
	"dyncomp/internal/engine"

	// Register the four built-in executors with the engine registry.
	_ "dyncomp/internal/adaptive"
	_ "dyncomp/internal/baseline"
	_ "dyncomp/internal/core"
	_ "dyncomp/internal/hybrid"
)

// Cache is a process-wide, structure-keyed derivation cache. Runs and
// sweeps sharing one Cache derive (and compile) each structural shape
// once while it stays cached, serving every later request for that
// shape by rebinding the cached template — the mechanism behind both
// the sweep engine's statistics and the serving layer's cross-request
// cache. The cache is bounded: beyond its entry limit the
// least-recently-used template is evicted and a later request for that
// shape re-derives. A Cache is safe for concurrent use; the zero value
// is not usable, create it with NewCache or NewCacheLimit.
type Cache struct{ c *derive.Cache }

// NewCache creates an empty derivation cache, bounded to a default of
// 1024 structural shapes, to share across Run and Sweep calls via
// EngineOptions.Cache / SweepOptions.Cache.
func NewCache() *Cache { return &Cache{c: derive.NewCache()} }

// NewCacheLimit creates an empty derivation cache evicting
// least-recently-used templates beyond limit structural shapes;
// limit <= 0 disables eviction.
func NewCacheLimit(limit int) *Cache { return &Cache{c: derive.NewCacheLimit(limit)} }

// Stats returns how many cache requests were served by an existing
// template (hits) and how many derived (misses — the number of
// derivations performed, including re-derivations of evicted shapes).
func (c *Cache) Stats() (hits, misses int64) { return c.c.Stats() }

// Evictions returns how many templates the entry bound has evicted.
func (c *Cache) Evictions() int64 { return c.c.Evictions() }

// Shapes returns the number of distinct structural shapes cached.
func (c *Cache) Shapes() int { return c.c.Shapes() }

// EngineOptions is the unified configuration accepted by every engine;
// fields an engine has no use for are ignored (only the adaptive engine
// reads WindowK, only the hybrid engine reads AbstractGroup).
type EngineOptions struct {
	// Record enables evolution-instant and resource-activity recording.
	Record bool
	// LimitNs bounds the simulated time in nanoseconds (0: run to
	// completion).
	LimitNs int64
	// IterLimit, when positive, bounds the evolution to iterations
	// [0, IterLimit): every source stops after token IterLimit-1.
	IterLimit int
	// WindowK is the adaptive engine's fixed steady-state confirmation
	// window; 0 selects its confidence-driven detector (see Confidence).
	WindowK int
	// Confidence is the adaptive engine's confidence-driven detector
	// threshold in (0, 1), read when WindowK is 0 (0: the engine
	// default, 0.9).
	Confidence float64
	// AbstractGroup names the functions the hybrid engine abstracts;
	// required by the hybrid engine, ignored by the others.
	AbstractGroup []string
	// Reduce prunes value-redundant arcs from derived temporal
	// dependency graphs.
	Reduce bool
	// Cache shares a structure-keyed derivation cache across runs (see
	// NewCache); nil derives privately. The reference executor needs no
	// derivation and ignores it.
	Cache *Cache
	// Progress, when non-nil, receives coarse progress notifications
	// (completed evolution iterations, total or 0 when unknown) at the
	// engine's natural boundaries — the adaptive engine at every mode
	// switch, the others once at completion. Always invoked from the
	// calling goroutine.
	Progress func(done, total int)
}

// EngineResult is the unified report of a completed run; fields an
// engine cannot fill stay zero (the reference executor derives no graph,
// only the adaptive engine switches modes). The JSON field names follow
// the snake_case schema documented in docs/SERVING.md; the serving
// layer defines its own wire structs (pinned by tests) so the HTTP API
// cannot shift when this struct evolves.
type EngineResult struct {
	// Trace holds the recorded evolution when EngineOptions.Record was
	// set; it is bit-exact across engines. Traces are not serialized.
	Trace *Trace `json:"-"`
	// Activations counts kernel context switches, Events kernel
	// event-queue operations.
	Activations int64 `json:"activations"`
	Events      int64 `json:"events"`
	// FinalTimeNs is the simulated time reached.
	FinalTimeNs int64 `json:"final_time_ns"`
	// WallNs is the host wall-clock time of the execution section.
	WallNs int64 `json:"wall_ns"`
	// Iterations counts completed evolution iterations (0 when the
	// engine does not track them).
	Iterations int `json:"iterations,omitempty"`
	// GraphNodes is the derived graph size in the paper's counting.
	GraphNodes int `json:"graph_nodes,omitempty"`
	// Switches and Fallbacks report the adaptive engine's mode changes.
	Switches  int `json:"switches,omitempty"`
	Fallbacks int `json:"fallbacks,omitempty"`
}

// Engines lists the registered execution engines, sorted by name —
// "adaptive", "equivalent", "hybrid", "reference" plus any future ones.
// Every engine produces bit-exact evolution instants on any architecture
// it accepts; they differ only in how much kernel work they pay.
func Engines() []string { return engine.Names() }

// Run simulates the architecture with the named engine (any name from
// Engines). It is the uniform entry point behind which the four
// executors are interchangeable:
//
//	ref, _ := dyncomp.Run(ctx, "reference", a, dyncomp.EngineOptions{Record: true})
//	eq,  _ := dyncomp.Run(ctx, "equivalent", a, dyncomp.EngineOptions{Record: true})
//	err := dyncomp.CompareTraces(ref.Trace, eq.Trace) // nil: bit-exact
//
// Cancellation is honored at the engine's natural granularity (the
// adaptive engine between execution phases, the others before starting).
func Run(ctx context.Context, engineName string, a *Architecture, opts EngineOptions) (*EngineResult, error) {
	eng, err := engine.Lookup(engineName)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	eopts := engine.Options{
		Record:        opts.Record,
		LimitNs:       opts.LimitNs,
		IterLimit:     opts.IterLimit,
		WindowK:       opts.WindowK,
		Confidence:    opts.Confidence,
		AbstractGroup: opts.AbstractGroup,
		Derive:        derive.Options{Reduce: opts.Reduce},
		Progress:      opts.Progress,
	}
	if opts.Cache != nil {
		eopts.Cache = opts.Cache.c
	}
	r, err := eng.Run(ctx, a, eopts)
	if err != nil {
		return nil, err
	}
	return &EngineResult{
		Trace:       r.Trace,
		Activations: r.Activations,
		Events:      r.Events,
		FinalTimeNs: r.FinalTimeNs,
		WallNs:      r.WallNs,
		Iterations:  r.Iterations,
		GraphNodes:  r.GraphNodes,
		Switches:    r.Switches,
		Fallbacks:   r.Fallbacks,
	}, nil
}
