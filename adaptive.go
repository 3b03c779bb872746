package dyncomp

import (
	"dyncomp/internal/adaptive"
	"dyncomp/internal/derive"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// AdaptiveOptions configures an adaptive (temporal-abstraction) run.
type AdaptiveOptions struct {
	// Record enables evolution-instant and resource-activity recording.
	// The engine records internally either way (the history seeds every
	// engine switch), so recording costs nothing extra.
	Record bool
	// LimitNs bounds the simulated time in nanoseconds (0: run to
	// completion); the trace holds exactly the instants up to it.
	LimitNs int64
	// Reduce prunes value-redundant arcs from the derived graph.
	Reduce bool
	// WindowK is the number of consecutive iterations with an unchanged
	// parameter signature required before hot-switching to the equivalent
	// model; it is also the event-driven chunk length between steady-state
	// checks. Zero selects the confidence-driven detector (see
	// Confidence), which switches as early as the evidence allows.
	WindowK int
	// Confidence is the confidence-driven detector's steadiness
	// threshold in (0, 1), read when WindowK is zero (0: the engine
	// default of 0.9). The detector is policy either way — the recorded
	// evolution is bit-exact at any setting.
	Confidence float64
}

// AdaptivePhase is one maximal span of iterations executed in a single
// mode ("detailed" or "abstract").
type AdaptivePhase struct {
	Mode         string
	StartK, EndK int   // iteration span [StartK, EndK)
	Events       int64 // kernel event-queue operations paid (0 when abstract)
	Activations  int64 // kernel context switches paid (0 when abstract)
	WallNs       int64 // host time spent in the span
}

// AdaptiveResult reports a completed adaptive run. The embedded
// RunResult counts only the kernel work actually paid: abstract phases
// contribute zero events.
type AdaptiveResult struct {
	RunResult
	// Switches counts detailed→abstract transitions; Fallbacks counts
	// abstract→detailed transitions forced by a parameter change.
	Switches  int
	Fallbacks int
	// DetailedIterations and AbstractIterations split the evolution by
	// executing mode.
	DetailedIterations int
	AbstractIterations int
	// Phases lists the mode spans in execution order.
	Phases []AdaptivePhase
}

// RunAdaptive simulates the architecture with the adaptive engine: the
// run starts event-by-event, hot-switches to the equivalent (max,+) model
// once a steady state is confirmed (unchanged execution durations and
// source-schedule increments over WindowK iterations), and falls back to
// event-driven execution whenever the parameters change again, re-binding
// the temporal dependency graph through the structure-keyed cache on the
// next steady window. The recorded trace is bit-exact against the
// reference executor regardless of how the run is partitioned; on
// phase-changing workloads most kernel events are saved.
//
// RunAdaptive remains the full-fidelity adaptive entry point (it reports
// per-phase spans the unified result cannot carry); Run(ctx, "adaptive",
// a, ...) reaches the same engine through the registry.
func RunAdaptive(a *Architecture, opts AdaptiveOptions) (*AdaptiveResult, error) {
	var trace *observe.Trace
	if opts.Record {
		trace = observe.NewTrace(a.Name + "/adaptive")
	}
	res, err := adaptive.Run(a, adaptive.Options{
		Trace:      trace,
		Limit:      sim.Time(opts.LimitNs),
		Window:     opts.WindowK,
		Confidence: opts.Confidence,
		Derive:     derive.Options{Reduce: opts.Reduce},
	})
	if err != nil {
		return nil, err
	}
	out := &AdaptiveResult{
		RunResult: RunResult{
			Trace:       trace,
			Activations: res.Stats.Activations,
			Events:      res.Stats.Events(),
			FinalTimeNs: int64(res.Stats.FinalTime),
			GraphNodes:  res.GraphNodes,
		},
		Switches:           res.Switches,
		Fallbacks:          res.Fallbacks,
		DetailedIterations: res.DetailedIters,
		AbstractIterations: res.AbstractIters,
	}
	for _, ph := range res.Phases {
		out.Phases = append(out.Phases, AdaptivePhase{
			Mode:        ph.Mode.String(),
			StartK:      ph.StartK,
			EndK:        ph.EndK,
			Events:      ph.Events,
			Activations: ph.Activations,
			WallNs:      ph.Wall.Nanoseconds(),
		})
	}
	return out, nil
}
