package optimize

import (
	"context"
	"errors"
	"testing"

	"dyncomp/internal/archjson"

	// Link the executors the sweep engine resolves by name.
	_ "dyncomp/internal/adaptive"
	_ "dyncomp/internal/baseline"
	_ "dyncomp/internal/core"
	_ "dyncomp/internal/hybrid"
)

// The reference design space: one function whose cost and source
// period are the declared axes. Final time is exactly affine in both —
// (count-1)·period + work at 1 op/ns — so the quadratic surrogate fits
// it exactly and the acquisition loop's pruning is put to a sharp
// test: the true front is the full W=50 column (objective and power
// trade off along the period axis; larger work is dominated at every
// period).
const refSpec = `{
  "version": 1,
  "name": "refgrid",
  "parameters": [
    {"name": "period", "default": 700,
     "values": [500, 550, 600, 650, 700, 750, 800, 850],
     "power": {"scale": 2e5, "exp": -1}},
    {"name": "work", "default": 100,
     "values": [50, 100, 150, 200],
     "power": {"scale": 0.5},
     "area": {"base": 1, "scale": 0.01}}
  ],
  "channels": [
    {"name": "in", "kind": "rendezvous"},
    {"name": "out", "kind": "rendezvous"}
  ],
  "functions": [
    {"name": "F", "body": [
      {"read": "in"},
      {"exec": {"label": "T", "cost": {"kind": "fixed", "ops": "$work"}}},
      {"write": "out"}
    ]}
  ],
  "resources": [{"name": "P1", "kind": "processor", "ops_per_sec": 1e9}],
  "mapping": [{"resource": "P1", "functions": ["F"]}],
  "sources": [{"name": "src", "channel": "in", "count": 40,
               "schedule": {"kind": "periodic", "period": "$period", "offset": 0}}],
  "sinks": [{"name": "sink", "channel": "out"}]
}`

func decodeRef(t *testing.T) *archjson.Spec {
	t.Helper()
	spec, err := archjson.Decode([]byte(refSpec))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func sameFront(t *testing.T, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("front has %d points, want %d\ngot:  %+v\nwant: %+v", len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.Objective != w.Objective || g.Area != w.Area || g.Power != w.Power {
			t.Fatalf("front[%d] = %+v, want %+v", i, g, w)
		}
	}
}

// The acceptance property of the optimizer: the surrogate-driven loop
// returns the exact Pareto front a brute-force exhaustive sweep
// extracts, while simulating strictly fewer points.
func TestSurrogateFrontMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	spec := decodeRef(t)

	exh, err := Run(ctx, spec, Options{Objective: ObjectiveFinalTime, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !exh.Exhaustive || exh.Simulated != 32 || exh.GridPoints != 32 || exh.Feasible != 32 {
		t.Fatalf("exhaustive run: %+v", exh)
	}
	// The true front: every period at work=50 (objective rises, power
	// falls along the period axis; any work > 50 is dominated at the
	// same period).
	if len(exh.Front) != 8 {
		t.Fatalf("exhaustive front has %d points, want 8: %+v", len(exh.Front), exh.Front)
	}
	for _, p := range exh.Front {
		if p.Params["work"] != 50 {
			t.Fatalf("exhaustive front contains work=%d: %+v", p.Params["work"], p)
		}
		if p.Origin != OriginExhaustive {
			t.Fatalf("exhaustive front point has origin %q", p.Origin)
		}
	}

	res, err := Run(ctx, spec, Options{Objective: ObjectiveFinalTime})
	if err != nil {
		t.Fatal(err)
	}
	sameFront(t, res.Front, exh.Front)
	if !res.Converged || res.Exhaustive {
		t.Fatalf("surrogate run did not converge cleanly: %+v", res)
	}
	if res.Simulated >= exh.Simulated {
		t.Fatalf("surrogate run simulated %d of %d points — no savings over brute force", res.Simulated, exh.Simulated)
	}
	for _, p := range res.Front {
		if p.Origin != OriginSeed && p.Origin != OriginRefined {
			t.Fatalf("surrogate front point has origin %q: %+v", p.Origin, p)
		}
	}
	t.Logf("surrogate: %d/%d simulated, front %d points", res.Simulated, exh.Simulated, len(res.Front))
}

// Constraints cut the feasible set analytically before any simulation,
// and the constrained fronts agree between the two drivers.
func TestConstrainedFrontMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	spec := decodeRef(t)
	cons := []Constraint{{Metric: MetricPower, Max: 300}}

	exh, err := Run(ctx, spec, Options{Objective: ObjectiveFinalTime, Constraints: cons, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if exh.Feasible >= 32 || exh.Feasible == 0 {
		t.Fatalf("power budget did not cut the grid: feasible %d of %d", exh.Feasible, exh.GridPoints)
	}
	if exh.Simulated != exh.Feasible {
		t.Fatalf("exhaustive simulated %d != feasible %d", exh.Simulated, exh.Feasible)
	}
	for _, p := range exh.Front {
		if p.Power > 300 {
			t.Fatalf("front point violates the power budget: %+v", p)
		}
	}

	res, err := Run(ctx, spec, Options{Objective: ObjectiveFinalTime, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	sameFront(t, res.Front, exh.Front)
	if res.Simulated > exh.Simulated {
		t.Fatalf("surrogate run simulated %d > feasible %d", res.Simulated, exh.Simulated)
	}
}

// The cycle-mean objective (the default) drives the same machinery.
func TestCycleMeanObjective(t *testing.T) {
	ctx := context.Background()
	spec := decodeRef(t)
	exh, err := Run(ctx, spec, Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if exh.Objective != ObjectiveCycleMean {
		t.Fatalf("default objective = %q", exh.Objective)
	}
	res, err := Run(ctx, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameFront(t, res.Front, exh.Front)
}

// An exhausted budget returns the partial front honestly: Converged
// false, simulated count at the cap.
func TestBudgetStopsEarly(t *testing.T) {
	spec := decodeRef(t)
	res, err := Run(context.Background(), spec, Options{Objective: ObjectiveFinalTime, Budget: 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated > 14 {
		t.Fatalf("budget 14 but simulated %d", res.Simulated)
	}
	if res.Converged {
		t.Fatalf("a 14-point budget on a 32-point grid should not converge: %+v", res)
	}
}

// Input validation: unknown objectives, unknown constraint metrics,
// constraints without a declared cost model, and spaces with no axes,
// each wrapping its sentinel (the serving layer maps them to codes).
func TestRunRejectsBadInputs(t *testing.T) {
	ctx := context.Background()
	spec := decodeRef(t)
	if _, err := Run(ctx, spec, Options{Objective: "latency_p99"}); !errors.Is(err, ErrObjective) {
		t.Fatalf("unknown objective: %v, want ErrObjective", err)
	}
	if _, err := Run(ctx, spec, Options{Constraints: []Constraint{{Metric: "thermals", Max: 1}}}); !errors.Is(err, ErrConstraint) {
		t.Fatalf("unknown constraint metric: %v, want ErrConstraint", err)
	}
	noCost, err := archjson.Decode([]byte(`{
		"version": 1, "name": "nocost",
		"parameters": [{"name": "work", "default": 50, "values": [50, 100]}],
		"channels": [{"name": "in", "kind": "rendezvous"}, {"name": "out", "kind": "rendezvous"}],
		"functions": [{"name": "F", "body": [
			{"read": "in"},
			{"exec": {"cost": {"kind": "fixed", "ops": "$work"}}},
			{"write": "out"}]}],
		"resources": [{"name": "P", "kind": "processor", "ops_per_sec": 1e9}],
		"mapping": [{"resource": "P", "functions": ["F"]}],
		"sources": [{"name": "s", "channel": "in", "count": 5}],
		"sinks": [{"name": "k", "channel": "out"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, noCost, Options{Constraints: []Constraint{{Metric: MetricArea, Max: 10}}}); !errors.Is(err, ErrConstraint) {
		t.Fatalf("area constraint without a declared area model: %v, want ErrConstraint", err)
	}
	noAxes := decodeRef(t)
	for i := range noAxes.Parameters {
		noAxes.Parameters[i].Values = nil
	}
	if _, err := Run(ctx, noAxes, Options{}); !errors.Is(err, ErrAxes) {
		t.Fatalf("axis-free design space: %v, want ErrAxes", err)
	}
}
