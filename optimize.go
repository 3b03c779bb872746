package dyncomp

import (
	"context"

	"dyncomp/internal/optimize"
)

// Objective metrics for Optimize (minimized).
const (
	// ObjectiveCycleMean minimizes steady-state time per iteration.
	ObjectiveCycleMean = optimize.ObjectiveCycleMean
	// ObjectiveFinalTime minimizes the end-to-end evolution time.
	ObjectiveFinalTime = optimize.ObjectiveFinalTime
)

// Constraint metrics for OptimizeConstraint.
const (
	MetricArea  = optimize.MetricArea
	MetricPower = optimize.MetricPower
)

// OptimizeConstraint is one platform budget: the named analytic cost
// metric ("area" or "power") must not exceed Max. Constraining a
// metric the spec declares no cost model for is an error — the budget
// would be unenforceable, not trivially satisfied.
type OptimizeConstraint = optimize.Constraint

// OptimizePoint is one Pareto-optimal design: exact simulated
// objective, analytic platform costs, and provenance (seed | refined |
// exhaustive).
type OptimizePoint = optimize.Point

// OptimizeResult is the outcome of an optimization run. Front holds
// only exactly-simulated points; Simulated against GridPoints measures
// how much of the design space the surrogate let the search skip.
type OptimizeResult = optimize.Result

// OptimizeOptions configures Optimize.
type OptimizeOptions struct {
	// EngineName selects the executor evaluating simulated points by
	// registered name (empty: "adaptive").
	EngineName string
	// Workers sets the evaluation worker-pool size (0: all processors).
	Workers int
	// BatchWidth enables batched same-shape lane evaluation, as in
	// SweepOptions.
	BatchWidth int
	// Objective selects the minimized metric (empty: ObjectiveCycleMean).
	Objective string
	// Constraints are the analytic area/power budgets applied before any
	// simulation.
	Constraints []OptimizeConstraint
	// Budget caps the number of exactly simulated points (0: no cap);
	// an exhausted budget returns the partial front with Converged false.
	Budget int
	// Exhaustive forces brute-force simulation of every feasible point.
	Exhaustive bool
	// Group is the abstraction group for the hybrid engine (nil: the
	// spec's canonical group).
	Group []string
	// Cache shares a structure-keyed derivation cache (see NewCache)
	// with other runs and sweeps; nil derives privately.
	Cache *Cache
	// Progress, when set, observes (simulated, feasible) after every
	// simulation round.
	Progress func(simulated, feasible int)
}

// Optimize searches a spec's declared design space — the parameters
// listing candidate values — for the Pareto front of the objective
// against the spec's analytic cost metrics. Infeasible designs are
// discarded before simulation; a surrogate fitted on the simulated
// subset steers which candidates are worth simulating, and the
// returned front is computed exclusively from exact evaluations. See
// docs/MODEL_FORMAT.md for declaring parameter values and cost models.
func Optimize(ctx context.Context, spec *ArchSpec, opts OptimizeOptions) (*OptimizeResult, error) {
	o := optimize.Options{
		Engine:      opts.EngineName,
		Workers:     opts.Workers,
		BatchWidth:  opts.BatchWidth,
		Objective:   opts.Objective,
		Constraints: opts.Constraints,
		Budget:      opts.Budget,
		Exhaustive:  opts.Exhaustive,
		Group:       opts.Group,
		Progress:    opts.Progress,
	}
	if opts.Cache != nil {
		o.Cache = opts.Cache.c
	}
	return optimize.Run(ctx, spec, o)
}
