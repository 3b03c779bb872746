// Package optimize turns "evaluate my grid" into "find me a design":
// a Pareto design-space optimizer over an archjson architecture's
// declared parameter space. The objective is a sweep metric of the
// (max,+) evaluation (steady-state cycle mean or end-to-end final
// time); constraints are lumos-style area/power budgets evaluated
// analytically from the spec's per-parameter cost models, so
// infeasible designs are discarded *before* any simulation. The search
// is driven by the sampled sweep's surrogate as an acquisition model:
// fit the objective on the simulated subset, and simulate a candidate
// only while its optimistic bound (prediction minus uncertainty) keeps
// it Pareto-competitive with the exact points already simulated. The
// returned front is computed exclusively from exactly-simulated
// values — the surrogate decides where to *look*, never what to
// *report* — with per-point provenance (seed / refined / exhaustive)
// and an honest exhaustive fallback when the grid is unlearnable.
package optimize

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"dyncomp/internal/archjson"
	"dyncomp/internal/derive"
	"dyncomp/internal/model"
	"dyncomp/internal/surrogate"
	"dyncomp/internal/sweep"
)

// Objective metrics.
const (
	// ObjectiveCycleMean minimizes steady-state time per iteration:
	// final time / iterations.
	ObjectiveCycleMean = "cycle_mean"
	// ObjectiveFinalTime minimizes the end-to-end evolution time.
	ObjectiveFinalTime = "final_time"
)

// Constraint metrics.
const (
	MetricArea  = "area"
	MetricPower = "power"
)

// Input errors: every error Validate returns wraps one of these.
var (
	ErrObjective  = errors.New("unknown objective")
	ErrConstraint = errors.New("invalid constraint")
	ErrAxes       = errors.New("no parameter values to explore")
)

// Constraint is one platform budget: the named analytic cost metric
// must not exceed Max.
type Constraint struct {
	Metric string  // "area" | "power"
	Max    float64 // inclusive budget
}

// Point origins (Result provenance).
const (
	// OriginSeed marks a point simulated by the deterministic seed plan.
	OriginSeed = "seed"
	// OriginRefined marks a point the acquisition loop chose to simulate.
	OriginRefined = "refined"
	// OriginExhaustive marks a point simulated by the exhaustive sweep
	// (forced, or the fallback on an unlearnable grid).
	OriginExhaustive = "exhaustive"
)

// refineBatch matches the sampled sweep's refinement round size.
const refineBatch = 8

// Options configures one optimization run.
type Options struct {
	// Engine names the executor evaluating simulated points (empty:
	// sweep.DefaultEngine).
	Engine string
	// Workers sets the sweep worker-pool size (0: GOMAXPROCS).
	Workers int
	// BatchWidth enables batched same-shape lane evaluation, as in
	// sweep.Options.
	BatchWidth int
	// Objective selects the minimized metric (empty: ObjectiveCycleMean).
	Objective string
	// Constraints are the area/power budgets; a constraint on a metric
	// no parameter declares a cost model for is an error (the budget
	// would be unenforceable, not trivially satisfied).
	Constraints []Constraint
	// Budget caps the number of simulated points (0: no cap). An
	// exhausted budget returns the front of what was simulated, with
	// Converged false.
	Budget int
	// Exhaustive forces brute-force simulation of every feasible point —
	// the reference the surrogate-driven loop is tested against.
	Exhaustive bool
	// Group is the abstraction group for the hybrid engine (nil: the
	// spec's canonical group).
	Group []string
	// Cache supplies a shared structure-keyed derivation cache.
	Cache *derive.Cache
	// Progress, when set, observes (simulated, feasible) after every
	// simulation round.
	Progress func(simulated, feasible int)
}

// Point is one Pareto-optimal design, with exact simulated objective
// and analytic platform costs.
type Point struct {
	Index     int              `json:"index"` // row-major grid index
	Params    map[string]int64 `json:"params"`
	Objective float64          `json:"objective"`
	Area      float64          `json:"area,omitempty"`
	Power     float64          `json:"power,omitempty"`
	Origin    string           `json:"origin"` // seed | refined | exhaustive
	Round     int              `json:"round"`  // acquisition round that simulated it
}

// Result is the outcome of one optimization run.
type Result struct {
	Objective  string  `json:"objective"`
	Front      []Point `json:"front"`
	GridPoints int     `json:"grid_points"` // full design-space size
	Feasible   int     `json:"feasible"`    // points surviving the constraint filter
	Simulated  int     `json:"simulated"`   // exactly-evaluated points
	Converged  bool    `json:"converged"`   // acquisition ran out of competitive candidates
	Exhaustive bool    `json:"exhaustive"`  // brute force (forced or fallback)
}

// candidate is one feasible grid point's search state.
type candidate struct {
	idx    int // index into the feasible list
	pt     sweep.Point
	area   float64
	power  float64
	obj    float64 // exact objective once simulated
	origin string
	round  int
	done   bool
	failed bool // simulation failed; excluded from fit, dominance and front
}

// Run optimizes the spec's declared design space. The axes are the
// spec parameters declaring candidate values; parameters without
// values stay fixed at their defaults.
func Run(ctx context.Context, spec *archjson.Spec, opts Options) (*Result, error) {
	if err := Validate(spec, opts.Objective, opts.Constraints); err != nil {
		return nil, err
	}
	objective := opts.Objective
	if objective == "" {
		objective = ObjectiveCycleMean
	}
	var axes []sweep.Axis
	for i := range spec.Parameters {
		p := &spec.Parameters[i]
		if len(p.Values) > 0 {
			vals := append([]int64(nil), p.Values...)
			sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
			axes = append(axes, sweep.Axis{Name: p.Name, Values: vals})
		}
	}
	pts, err := sweep.Grid(axes)
	if err != nil {
		return nil, err
	}

	// Analytic constraint filter: evaluate the declared cost models per
	// point and drop designs over budget before any simulation.
	probe, err := spec.EvalCost(nil)
	if err != nil {
		return nil, err
	}
	var feasible []*candidate
	for _, pt := range pts {
		m, err := spec.EvalCost(pt)
		if err != nil {
			return nil, err
		}
		ok := true
		for _, c := range opts.Constraints {
			v := m.Area
			if c.Metric == MetricPower {
				v = m.Power
			}
			ok = ok && v <= c.Max
		}
		if ok {
			feasible = append(feasible, &candidate{idx: len(feasible), pt: pt, area: m.Area, power: m.Power})
		}
	}
	res := &Result{
		Objective:  objective,
		GridPoints: len(pts),
		Feasible:   len(feasible),
	}
	if len(feasible) == 0 {
		res.Converged = true
		return res, nil
	}

	s := &search{
		ctx:       ctx,
		spec:      spec,
		opts:      opts,
		objective: objective,
		axes:      axes,
		useArea:   probe.HasArea,
		usePower:  probe.HasPower,
		feasible:  feasible,
		res:       res,
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	res.Front = s.front()
	return res, nil
}

// Validate checks the inputs Run rejects before any simulation: the
// objective, each constraint's metric, that some parameter declares a
// cost model for it (skipped when the spec's costs fail to evaluate,
// which Run reports instead), and that the spec declares parameter
// values to explore. Its errors wrap ErrObjective, ErrConstraint or
// ErrAxes.
func Validate(spec *archjson.Spec, objective string, constraints []Constraint) error {
	if objective != "" && objective != ObjectiveCycleMean && objective != ObjectiveFinalTime {
		return fmt.Errorf("optimize: %w %q (want %q or %q)", ErrObjective, objective, ObjectiveCycleMean, ObjectiveFinalTime)
	}
	probe, probeErr := spec.EvalCost(nil)
	for _, c := range constraints {
		switch c.Metric {
		case MetricArea, MetricPower:
		default:
			return fmt.Errorf("optimize: %w: unknown metric %q (want %q or %q)", ErrConstraint, c.Metric, MetricArea, MetricPower)
		}
		if probeErr == nil && (c.Metric == MetricArea && !probe.HasArea || c.Metric == MetricPower && !probe.HasPower) {
			return fmt.Errorf("optimize: %w: no parameter of %q declares a %s cost model; the budget would be unenforceable",
				ErrConstraint, spec.Name, c.Metric)
		}
	}
	for i := range spec.Parameters {
		if len(spec.Parameters[i].Values) > 0 {
			return nil
		}
	}
	return fmt.Errorf("optimize: architecture %q declares %w", spec.Name, ErrAxes)
}

type search struct {
	ctx       context.Context
	spec      *archjson.Spec
	opts      Options
	objective string
	axes      []sweep.Axis
	useArea   bool
	usePower  bool
	feasible  []*candidate
	round     int
	res       *Result
}

func (s *search) run() error {
	if s.opts.Exhaustive {
		s.res.Exhaustive = true
		if err := s.simulate(s.remaining(), OriginExhaustive); err != nil {
			return err
		}
		s.res.Converged = true
		return nil
	}
	dims := len(s.axes)
	seed := surrogate.SeedIndices(len(s.feasible), dims, s.opts.Budget)
	if err := s.simulate(seed, OriginSeed); err != nil {
		return err
	}
	for {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		remaining := s.remaining()
		if len(remaining) == 0 {
			s.res.Converged = true
			return nil
		}
		model, err := s.fit()
		if err != nil {
			// Unlearnable (singular or undersized fit): be honest and
			// simulate everything left rather than report a guessed front.
			s.res.Exhaustive = true
			if err := s.simulate(remaining, OriginExhaustive); err != nil {
				return err
			}
			s.res.Converged = true
			return nil
		}
		// Acquisition: a candidate stays alive while its optimistic
		// objective (prediction minus uncertainty half-width) is not
		// Pareto-dominated by an exactly-simulated point. Ties on every
		// dimension do not dominate — an equal design is still on the
		// front.
		type scored struct {
			idx   int
			objLo float64
			hw    float64
		}
		var alive []scored
		for _, i := range remaining {
			c := s.feasible[i]
			v, hw := model.Predict(c.pt.Values)
			objLo := v - hw
			if !s.dominatedExactly(objLo, c) {
				alive = append(alive, scored{idx: i, objLo: objLo, hw: hw})
			}
		}
		if len(alive) == 0 {
			s.res.Converged = true
			return nil
		}
		n := refineBatch
		if s.opts.Budget > 0 {
			left := s.opts.Budget - s.res.Simulated
			if left <= 0 {
				return nil // budget exhausted before convergence
			}
			if n > left {
				n = left
			}
		}
		if n > len(alive) {
			n = len(alive)
		}
		// Most promising first: lowest optimistic objective, then the
		// most uncertain (largest half-width), then grid order for
		// determinism.
		sort.Slice(alive, func(a, b int) bool {
			if alive[a].objLo != alive[b].objLo {
				return alive[a].objLo < alive[b].objLo
			}
			if alive[a].hw != alive[b].hw {
				return alive[a].hw > alive[b].hw
			}
			return alive[a].idx < alive[b].idx
		})
		batch := make([]int, n)
		for i := range batch {
			batch[i] = alive[i].idx
		}
		s.round++
		if err := s.simulate(batch, OriginRefined); err != nil {
			return err
		}
	}
}

// remaining lists unsimulated feasible indices.
func (s *search) remaining() []int {
	var out []int
	for i, c := range s.feasible {
		if !c.done {
			out = append(out, i)
		}
	}
	return out
}

// fit trains the acquisition surrogate on the simulated objectives.
func (s *search) fit() (*surrogate.Model, error) {
	axisVals := make([][]int64, len(s.axes))
	for i, ax := range s.axes {
		axisVals[i] = ax.Values
	}
	var pts [][]int64
	var y []float64
	for _, c := range s.feasible {
		if c.done && !c.failed {
			pts = append(pts, c.pt.Values)
			y = append(y, c.obj)
		}
	}
	return surrogate.FitValues(axisVals, pts, y)
}

// dominatedExactly reports whether some exactly-simulated point
// dominates a candidate whose objective is optimistically objLo:
// better-or-equal on every front dimension and strictly better on at
// least one.
func (s *search) dominatedExactly(objLo float64, c *candidate) bool {
	for _, p := range s.feasible {
		if !p.done || p.failed {
			continue
		}
		if p.obj > objLo {
			continue
		}
		if s.useArea && p.area > c.area {
			continue
		}
		if s.usePower && p.power > c.power {
			continue
		}
		if p.obj < objLo || (s.useArea && p.area < c.area) || (s.usePower && p.power < c.power) {
			return true
		}
	}
	return false
}

// simulate exactly evaluates the given feasible indices through the
// sweep engine (worker pool, derive cache, batching) and folds the
// objective back into the search state. Failed points are marked
// infeasible — a design that does not simulate cannot be recommended —
// but still count as spent simulation budget.
func (s *search) simulate(indices []int, origin string) error {
	if len(indices) == 0 {
		return nil
	}
	group := s.opts.Group
	if group == nil {
		group = s.spec.CanonicalGroup()
	}
	gridIdx := make([]int, len(indices))
	byGrid := make(map[int]*candidate, len(indices))
	for i, fi := range indices {
		c := s.feasible[fi]
		gridIdx[i] = c.pt.Index
		byGrid[c.pt.Index] = c
	}
	r, err := sweep.RunIndicesContext(s.ctx, s.axes, gridIdx, func(p sweep.Point) (*model.Architecture, error) {
		return s.spec.Build(p)
	}, sweep.Options{
		Workers:    s.opts.Workers,
		Engine:     s.opts.Engine,
		BatchWidth: s.opts.BatchWidth,
		Cache:      s.opts.Cache,
		Group:      group,
	})
	if err != nil {
		return err
	}
	for i := range r.Points {
		pr := &r.Points[i]
		c := byGrid[pr.Point.Index]
		if c == nil {
			continue
		}
		c.done, c.origin, c.round = true, origin, s.round
		s.res.Simulated++
		if pr.Err != nil {
			c.failed = true
			continue
		}
		obj, ok := s.objectiveOf(pr.Run)
		if !ok {
			c.failed = true
			continue
		}
		c.obj = obj
	}
	if s.opts.Progress != nil {
		s.opts.Progress(s.res.Simulated, s.res.Feasible)
	}
	return nil
}

// objectiveOf extracts the minimized metric from a point's stats.
func (s *search) objectiveOf(st sweep.PointStats) (float64, bool) {
	switch s.objective {
	case ObjectiveFinalTime:
		return float64(st.FinalTimeNs), true
	default: // ObjectiveCycleMean, validated in Run
		if st.Iterations <= 0 {
			return 0, false
		}
		return float64(st.FinalTimeNs) / float64(st.Iterations), true
	}
}

// front extracts the Pareto-optimal set over the exactly-simulated
// points: objective plus whichever analytic cost dimensions the spec
// declares, all minimized. Exact ties on every dimension do not
// dominate, so equal designs appear side by side.
func (s *search) front() []Point {
	var sim []*candidate
	for _, c := range s.feasible {
		if c.done && !c.failed {
			sim = append(sim, c)
		}
	}
	dominates := func(p, q *candidate) bool {
		if p.obj > q.obj {
			return false
		}
		if s.useArea && p.area > q.area {
			return false
		}
		if s.usePower && p.power > q.power {
			return false
		}
		return p.obj < q.obj || (s.useArea && p.area < q.area) || (s.usePower && p.power < q.power)
	}
	var front []Point
	for _, c := range sim {
		dominated := false
		for _, other := range sim {
			if other != c && dominates(other, c) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		params := make(map[string]int64, len(c.pt.Names))
		for i, n := range c.pt.Names {
			params[n] = c.pt.Values[i]
		}
		p := Point{
			Index:     c.pt.Index,
			Params:    params,
			Objective: c.obj,
			Origin:    c.origin,
			Round:     c.round,
		}
		if s.useArea {
			p.Area = c.area
		}
		if s.usePower {
			p.Power = c.power
		}
		front = append(front, p)
	}
	sort.Slice(front, func(a, b int) bool {
		if front[a].Objective != front[b].Objective {
			return front[a].Objective < front[b].Objective
		}
		return front[a].Index < front[b].Index
	})
	return front
}
