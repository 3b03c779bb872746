package dyncomp

import (
	"context"
	"fmt"
	"time"

	"dyncomp/internal/derive"
	"dyncomp/internal/sim"
	"dyncomp/internal/surrogate"
	"dyncomp/internal/sweep"
)

// SweepSampleOptions configures surrogate-guided sweep sampling: with a
// positive Tolerance, a sweep evaluates an actively chosen subset of
// the grid exactly, fits an analytical surrogate over the parameter
// axes, and predicts the remaining points within the declared relative
// tolerance. Budget caps the exact evaluations; Verify re-simulates
// every predicted point and reports the observed error.
type SweepSampleOptions = sweep.SampleOptions

// Point sources reported by sampled sweeps (SweepPointResult.Source).
const (
	// SweepSourceSimulated marks a point evaluated exactly by an engine.
	SweepSourceSimulated = sweep.SourceSimulated
	// SweepSourcePredicted marks a point filled in by the surrogate.
	SweepSourcePredicted = sweep.SourcePredicted
)

// The surrogate package registers the sampling driver with the sweep
// engine; referencing it here makes SweepOptions.Sample work for every
// facade user without a separate import.
var _ = surrogate.Run

// SweepAxis is one dimension of a design-space grid: a named list of
// integer parameter values. A sweep evaluates the cartesian product of
// its axes.
type SweepAxis = sweep.Axis

// SweepPoint is one configuration of the grid. Generators read parameter
// values with Get(name, default) or Lookup(name).
type SweepPoint = sweep.Point

// SweepGenerator maps a grid point to an architecture. It must be
// deterministic and safe for concurrent calls with distinct points.
type SweepGenerator = func(SweepPoint) (*Architecture, error)

// SweepStats aggregates a completed sweep: point and failure counts,
// derivation-cache effectiveness (Shapes, DeriveCalls, CacheHits), total
// wall-clock time, and — when SweepOptions.Baseline is set — the
// min/max/mean/geomean of the per-point speed-ups and event ratios.
type SweepStats = sweep.Stats

// SweepOptions configures a design-space sweep.
type SweepOptions struct {
	// Workers is the worker-pool size; 0 uses all processors. Per-point
	// results are identical for any worker count; only wall-clock
	// timings are perturbed by concurrency.
	Workers int
	// EngineName names the registered executor evaluating every point —
	// any name from Engines(), e.g. "hybrid" (with Group set). Empty
	// selects "equivalent".
	EngineName string
	// Group names the functions the hybrid engine abstracts on every
	// point; ignored by the other engines.
	Group []string
	// WindowK sets the adaptive engine's fixed steady-state window; 0
	// selects its confidence-driven detector (see Confidence). Ignored
	// by the other engines.
	WindowK int
	// Confidence sets the adaptive engine's confidence-driven detector
	// threshold, read when WindowK is 0 (0: the engine default, 0.9);
	// ignored by the other engines.
	Confidence float64
	// Record keeps per-point evolution traces in the results.
	Record bool
	// LimitNs bounds the simulated time per point (0: run to completion).
	LimitNs int64
	// Reduce prunes value-redundant arcs from the derived graphs.
	Reduce bool
	// Baseline also runs the event-driven reference executor on every
	// point and fills the per-point Baseline result, EventRatio and
	// SpeedUp, plus the aggregate statistics.
	Baseline bool
	// Cache shares a structure-keyed derivation cache (see NewCache)
	// with other sweeps and runs; nil creates a fresh one per sweep.
	Cache *Cache
	// Progress, when non-nil, receives (completed, total) after every
	// point finishes. It is invoked from the finishing worker's
	// goroutine, so it must be safe for concurrent calls and must not
	// block. A batched sweep (BatchWidth > 0) coalesces the
	// notifications to one per finished batch.
	Progress func(done, total int)
	// Sample, when its Tolerance is positive, evaluates only an actively
	// chosen subset of the grid exactly and predicts the rest from an
	// analytical surrogate fitted over the parameter axes, within the
	// given relative tolerance (see SweepSampleOptions). Every point is
	// flagged in SweepPointResult.Source; Stats.SimulatedPoints,
	// PredictedPoints and MaxPredError summarize the split.
	Sample SweepSampleOptions
	// BatchWidth, when positive, evaluates structurally identical grid
	// points in batched lane groups of up to this many points — one
	// compiled structure, one lockstep evaluation pass per iteration
	// for the whole group. Per-point results are bit-identical to the
	// per-point sweep; Stats.Batches / BatchedPoints / BatchOccupancy
	// report how much of the grid ran batched. Engines without the
	// batch capability (reference, hybrid, adaptive) run per point
	// regardless. 0 disables batching.
	BatchWidth int
}

// SweepPointResult is the evaluation of one grid point: the selected
// engine's RunResult (embedded) plus optional baseline pairing.
type SweepPointResult struct {
	Point SweepPoint
	// RunResult is the selected engine's run of this point, with the
	// counters a single Run of that engine reports.
	RunResult
	// Wall is the host time of the engine run.
	Wall time.Duration
	// Baseline is the reference executor's result when
	// SweepOptions.Baseline is set.
	Baseline     *RunResult
	BaselineWall time.Duration
	// EventRatio and SpeedUp are the paper's headline ratios
	// (baseline/equivalent), filled when Baseline is set.
	EventRatio float64
	SpeedUp    float64
	// Switches and Fallbacks report the adaptive engine's mode changes
	// (zero for the other engines).
	Switches  int
	Fallbacks int
	// Source reports how a sampled sweep obtained this point:
	// SweepSourceSimulated or SweepSourcePredicted. Empty in exhaustive
	// sweeps.
	Source string
	// PredBound is the surrogate's relative error bound on a predicted
	// point; PredObserved the observed error after Sample.Verify.
	PredBound    float64
	PredObserved float64
	// Err marks a failed point.
	Err error
}

// SweepResult is a completed design-space sweep: one entry per grid
// point in row-major grid order, plus aggregate statistics.
type SweepResult struct {
	Points []SweepPointResult
	Stats  SweepStats
}

// Sweep evaluates every configuration of the grid spanned by axes,
// sharding the points across a worker pool; SweepOptions.EngineName
// selects the per-point executor — any registered engine: equivalent
// model by default, reference executor, hybrid with an abstracted
// group, or the adaptive engine. The
// temporal dependency graph is derived once per structural shape and
// re-bound to every other point of that shape, so sweeping parameters
// (token counts, periods, seeds, costs, speeds) over a fixed topology
// pays the derivation cost once; per-point results are bit-identical to
// individual single-run calls of the same engine.
//
// Failed points carry their error in Points[i].Err; when any point
// failed, Sweep also returns a summary error alongside the full result.
func Sweep(axes []SweepAxis, gen SweepGenerator, opts SweepOptions) (*SweepResult, error) {
	return SweepContext(context.Background(), axes, gen, opts)
}

// SweepContext is Sweep with cancellation threaded through the worker
// pool: once ctx is cancelled no further point is dispatched, the
// remaining points fail with the context's error, and SweepContext
// returns it alongside the partial result.
func SweepContext(ctx context.Context, axes []SweepAxis, gen SweepGenerator, opts SweepOptions) (*SweepResult, error) {
	sopts := sweep.Options{
		Workers:    opts.Workers,
		Engine:     opts.EngineName,
		Window:     opts.WindowK,
		Confidence: opts.Confidence,
		Group:      opts.Group,
		Record:     opts.Record,
		Limit:      sim.Time(opts.LimitNs),
		Baseline:   opts.Baseline,
		Derive:     derive.Options{Reduce: opts.Reduce},
		Progress:   opts.Progress,
		Sample:     opts.Sample,
		BatchWidth: opts.BatchWidth,
	}
	if opts.Cache != nil {
		sopts.Cache = opts.Cache.c
	}
	res, err := sweep.RunContext(ctx, axes, sweep.Generator(gen), sopts)
	if err != nil && res == nil {
		return nil, err
	}
	out := &SweepResult{
		Points: make([]SweepPointResult, len(res.Points)),
		Stats:  res.Stats,
	}
	var firstErr error
	for i, pr := range res.Points {
		sp := SweepPointResult{
			Point: pr.Point,
			RunResult: RunResult{
				Trace:       pr.Trace,
				Activations: pr.Run.Activations,
				Events:      pr.Run.Events,
				FinalTimeNs: pr.Run.FinalTimeNs,
				GraphNodes:  pr.Run.GraphNodes,
			},
			Wall:         pr.Run.Wall,
			EventRatio:   pr.EventRatio,
			SpeedUp:      pr.SpeedUp,
			Switches:     pr.Run.Switches,
			Fallbacks:    pr.Run.Fallbacks,
			Source:       pr.Source,
			PredBound:    pr.PredBound,
			PredObserved: pr.PredObserved,
			Err:          pr.Err,
		}
		if pr.Baseline != nil {
			sp.Baseline = &RunResult{
				Trace:       pr.BaselineTrace,
				Activations: pr.Baseline.Activations,
				Events:      pr.Baseline.Events,
				FinalTimeNs: pr.Baseline.FinalTimeNs,
			}
			sp.BaselineWall = pr.Baseline.Wall
		}
		if pr.Err != nil && firstErr == nil {
			firstErr = pr.Err
		}
		out.Points[i] = sp
	}
	if err != nil {
		// Cancellation: the partial result travels with the context error.
		return out, err
	}
	if firstErr != nil {
		return out, fmt.Errorf("sweep: %d of %d points failed; first: %w",
			res.Stats.Failed, res.Stats.Points, firstErr)
	}
	return out, nil
}
