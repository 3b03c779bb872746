// Package engine defines the uniform execution contract behind the
// repository's four executors — the event-driven reference executor
// (internal/baseline), the equivalent model (internal/core), partial
// abstraction (internal/hybrid) and temporal abstraction
// (internal/adaptive) — and a registry that makes them addressable by
// name.
//
// The paper's core claim is that these executors are interchangeable
// views of one model: every one of them must produce bit-exact evolution
// instants on any architecture it accepts. This package turns that claim
// into an interface: an Engine takes an architecture and one unified
// Options struct and returns one unified Result, so every consumer —
// design-space sweeps, the experiment harness, the CLIs, future
// distributed shards — plugs into all executors at once instead of once
// per executor.
//
// Implementations live next to their executors and self-register in
// init(); importing an executor package (directly or blank) makes it
// reachable through Lookup. The public dyncomp facade imports all four,
// as does internal/sweep, so any ordinary consumer sees the full set in
// Names().
package engine

import (
	"context"

	"dyncomp/internal/derive"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
)

// Options is the unified per-run configuration shared by every engine.
// Engines ignore fields that do not apply to them (the reference
// executor has no graph to reduce, only the adaptive engine reads
// WindowK, only the hybrid engine reads AbstractGroup) but never fail on
// them, so one Options value can drive any registered engine.
type Options struct {
	// Record enables evolution-instant and resource-activity recording;
	// the recorded trace is returned in Result.Trace and is bit-exact
	// across engines.
	Record bool
	// LimitNs bounds the simulated time in nanoseconds (0: run to
	// completion). Every engine records exactly the instants up to the
	// limit, as the reference executor does.
	LimitNs int64
	// IterLimit, when positive, bounds the evolution to iterations
	// [0, IterLimit): every source stops after token IterLimit-1.
	IterLimit int
	// WindowK is the adaptive engine's steady-state confirmation window
	// (0: the engine default, the confidence-driven detector); ignored
	// by the other engines.
	WindowK int
	// Confidence is the adaptive engine's confidence-driven detector
	// threshold, read when WindowK is zero (0: the engine default);
	// ignored by the other engines.
	Confidence float64
	// AbstractGroup names the functions the hybrid engine abstracts into
	// an equivalent model; the hybrid engine fails without it, the other
	// engines ignore it.
	AbstractGroup []string
	// Derive sets the derivation options (arc reduction, pad nodes) for
	// every temporal dependency graph the run obtains.
	Derive derive.Options
	// Cache supplies a shared structure-keyed derivation cache (e.g. from
	// a design-space sweep) so repeated shapes re-bind one template
	// instead of re-deriving; nil derives privately. The reference
	// executor needs no derivation and ignores it.
	Cache *derive.Cache
	// Progress, when non-nil, receives coarse progress notifications:
	// completed evolution iterations and the total (0 when the engine
	// cannot know it). Engines invoke it at their natural internal
	// boundaries — the adaptive engine at every mode switch, the others
	// once at completion — always from the calling goroutine.
	Progress func(done, total int)
}

// Result is the unified report of a completed run. Fields an engine
// cannot fill stay zero (the reference executor derives no graph, only
// the adaptive engine switches modes).
type Result struct {
	// Trace holds the recorded evolution when Options.Record was set.
	Trace *observe.Trace
	// Activations counts kernel context switches (the cost the dynamic
	// computation method removes).
	Activations int64
	// Events counts kernel event-queue operations.
	Events int64
	// FinalTimeNs is the simulated time reached.
	FinalTimeNs int64
	// WallNs is the host wall-clock time of the engine's execution
	// section, excluding graph derivation where the engine separates the
	// two (models are generated before simulation in the paper's
	// methodology).
	WallNs int64
	// Iterations is the number of evolution iterations completed (0 when
	// the engine does not track them).
	Iterations int
	// GraphNodes is the derived graph size in the paper's counting
	// (engines that derive one).
	GraphNodes int
	// Switches counts detailed→abstract transitions, Fallbacks the
	// forced abstract→detailed transitions (adaptive engine only).
	Switches  int
	Fallbacks int
}

// Engine is one executor of architecture models. Implementations must be
// safe for concurrent Run calls with distinct architectures (design-space
// sweeps call them from a worker pool) and must honor context
// cancellation at their natural boundaries: every engine checks the
// context before starting, the adaptive engine additionally between
// execution phases.
type Engine interface {
	// Name is the engine's registry key ("reference", "equivalent",
	// "hybrid", "adaptive", ...).
	Name() string
	// Run simulates the architecture. The recorded evolution instants
	// must be bit-exact against every other engine's on the same model.
	Run(ctx context.Context, a *model.Architecture, opts Options) (*Result, error)
}

// BatchRunner is the capability an engine advertises when it can
// evaluate several architectures of one structural shape in a single
// batched pass (the equivalent model batches ComputeInstant across
// weight lanes). Callers discover it by type assertion:
//
//	if br, ok := eng.(BatchRunner); ok { br.RunBatch(...) }
//
// and fall back to per-point Run calls otherwise — the adaptive engine,
// for example, switches representations mid-run and has no batched form.
type BatchRunner interface {
	Engine
	// RunBatch simulates every architecture as one lane of a batch. All
	// architectures must share one structural shape (derive.ShapeKey).
	// Each lane's Result and recorded trace must be bit-exact against an
	// individual Run of the same architecture with the same Options.
	//
	// The third return reports the batch failing wholesale (nothing ran
	// — shape mismatch, unsupported options); callers then fall back to
	// per-point Run. Per-lane failures land in the error slice, aligned
	// with archs, while the other lanes' results stay valid.
	RunBatch(ctx context.Context, archs []*model.Architecture, opts Options) ([]*Result, []error, error)
}
