package surrogate

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"dyncomp/internal/model"
	"dyncomp/internal/sweep"
	"dyncomp/internal/zoo"
)

// --- model.go: the regression layer in isolation ---

// A noiseless quadratic surface must be recovered essentially exactly:
// near-zero LOO error and near-zero prediction error off the training
// set.
func TestFitRecoversQuadratic(t *testing.T) {
	f := func(x, y float64) float64 { return 3 + 2*x - y + 0.5*x*x + x*y }
	var X [][]float64
	var ys []float64
	grid := []float64{-1, -0.5, 0, 0.5, 1}
	for _, x := range grid {
		for _, y := range grid {
			X = append(X, features([]float64{x, y}, basisQuadratic))
			ys = append(ys, f(x, y))
		}
	}
	ft, err := fitMetric(X, ys)
	if err != nil {
		t.Fatal(err)
	}
	if ft.loo > 1e-6 {
		t.Fatalf("LOO error %g on a noiseless quadratic", ft.loo)
	}
	v, b := ft.predict(features([]float64{0.3, -0.7}, basisQuadratic))
	if want := f(0.3, -0.7); math.Abs(v-want) > 1e-6 {
		t.Fatalf("predict = %g, want %g", v, want)
	}
	if b > 1e-3 {
		t.Fatalf("bound %g on a noiseless quadratic", b)
	}
}

func TestBasisFallsBackWithSmallSamples(t *testing.T) {
	if k := basisFor(2, 3); k != basisConstant {
		t.Fatalf("basisFor(2,3) = %v, want constant", k)
	}
	if k := basisFor(2, 6); k != basisLinear {
		t.Fatalf("basisFor(2,6) = %v, want linear", k)
	}
	if k := basisFor(2, 12); k != basisQuadratic {
		t.Fatalf("basisFor(2,12) = %v, want quadratic", k)
	}
	// Feature layouts must prefix-contain each other — the driver slices
	// the memoized quadratic vector for the simpler bases.
	z := []float64{0.25, -0.75}
	q := features(z, basisQuadratic)
	l := features(z, basisLinear)
	c := features(z, basisConstant)
	for i, v := range l {
		if q[i] != v {
			t.Fatalf("linear features not a prefix of quadratic at %d", i)
		}
	}
	if q[0] != c[0] {
		t.Fatal("constant feature not a prefix of quadratic")
	}
}

func TestNormalizerDropsDegenerateAxes(t *testing.T) {
	nz := newNormalizer([][]int64{{5, 5, 5}, {10, 20, 30}})
	if nz.dims() != 1 {
		t.Fatalf("dims = %d, want 1 (degenerate axis kept)", nz.dims())
	}
	z := nz.z([]int64{5, 20})
	if len(z) != 1 || z[0] != 0 {
		t.Fatalf("z = %v, want [0]", z)
	}
	if z := nz.z([]int64{5, 10}); z[0] != -1 {
		t.Fatalf("low edge z = %v, want -1", z[0])
	}
	if z := nz.z([]int64{5, 30}); z[0] != 1 {
		t.Fatalf("high edge z = %v, want 1", z[0])
	}
}

// --- the driver ---

func chainGen(t *testing.T) sweep.Generator {
	t.Helper()
	sc, err := zoo.LookupScenario("chain")
	if err != nil {
		t.Fatal(err)
	}
	return func(p sweep.Point) (*model.Architecture, error) { return sc.Build(p), nil }
}

// periodAxis spans the source-dominated regime of the didactic family
// (the compute bottleneck cycles near ~940 for the seeds used here):
// final time is essentially bilinear in (period, tokens) there, which is
// what gives the surrogate a surface it can actually learn. Grids that
// straddle the compute/period regime kink keep simulating instead — see
// TestKinkedGridStaysHonest.
func periodAxis(n int) sweep.Axis {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(1100 + 40*i)
	}
	return sweep.Axis{Name: "period", Values: vals}
}

// A sampled sweep over a smooth grid must actually save simulations:
// fewer exact evaluations than grid points, every point flagged with its
// source, and the flag counts adding up to the grid.
func TestSampledSweepSavesSimulations(t *testing.T) {
	axes := []sweep.Axis{
		periodAxis(16),
		{Name: "tokens", Values: []int64{200, 300, 400, 500}},
		{Name: "seed", Values: []int64{7}},
		{Name: "stages", Values: []int64{2}},
	}
	res, err := sweep.RunContext(context.Background(), axes, chainGen(t), sweep.Options{
		Workers: 4,
		Sample:  sweep.SampleOptions{Tolerance: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 16 * 4
	st := res.Stats
	if st.Points != total {
		t.Fatalf("points = %d, want %d", st.Points, total)
	}
	if st.SimulatedPoints+st.PredictedPoints != total {
		t.Fatalf("simulated %d + predicted %d != %d", st.SimulatedPoints, st.PredictedPoints, total)
	}
	if st.PredictedPoints == 0 {
		t.Fatalf("no predictions on a smooth %d-point grid (simulated all %d)", total, st.SimulatedPoints)
	}
	if st.Failed != 0 {
		t.Fatalf("failed = %d", st.Failed)
	}
	for i, pr := range res.Points {
		switch pr.Source {
		case sweep.SourceSimulated:
			if pr.Run.Iterations == 0 || pr.Run.FinalTimeNs == 0 {
				t.Fatalf("point %d simulated but empty", i)
			}
		case sweep.SourcePredicted:
			if pr.Run.FinalTimeNs <= 0 || pr.Run.Iterations <= 0 {
				t.Fatalf("point %d predicted nonsense: %+v", i, pr.Run)
			}
			if pr.Run.Activations != 0 || pr.Run.Events != 0 || pr.Run.Wall != 0 {
				t.Fatalf("point %d predicted but carries simulation work: %+v", i, pr.Run)
			}
			if pr.PredBound <= 0 || pr.PredBound > 0.01 {
				t.Fatalf("point %d bound %g outside (0, tol]", i, pr.PredBound)
			}
		default:
			t.Fatalf("point %d has no source (%q)", i, pr.Source)
		}
	}
	if st.MaxPredError <= 0 || st.MaxPredError > 0.01 {
		t.Fatalf("MaxPredError = %g, want within tolerance", st.MaxPredError)
	}
}

// Budget caps the exact evaluations even when the tolerance is
// unreachable; the rest of the grid is predicted with honest bounds.
func TestBudgetCapsSimulations(t *testing.T) {
	axes := []sweep.Axis{periodAxis(32), {Name: "tokens", Values: []int64{200}}, {Name: "seed", Values: []int64{7}}}
	res, err := sweep.RunContext(context.Background(), axes, chainGen(t), sweep.Options{
		Workers: 2,
		Sample:  sweep.SampleOptions{Tolerance: 1e-12, Budget: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SimulatedPoints > 10 {
		t.Fatalf("simulated %d > budget 10", st.SimulatedPoints)
	}
	if st.SimulatedPoints+st.PredictedPoints != 32 {
		t.Fatalf("simulated %d + predicted %d != 32", st.SimulatedPoints, st.PredictedPoints)
	}
	for _, pr := range res.Points {
		if pr.Source == sweep.SourcePredicted && pr.PredBound <= 0 {
			t.Fatalf("predicted point %s without a bound", pr.Point)
		}
	}
}

// Verify re-simulates every predicted point: exact metrics replace the
// predictions, the observed error is recorded per point, and the
// worst observed error — not the model's guess — lands in the stats.
func TestVerifyReportsObservedError(t *testing.T) {
	axes := []sweep.Axis{periodAxis(24), {Name: "tokens", Values: []int64{300}}, {Name: "seed", Values: []int64{7}}}
	tol := 0.01
	res, err := sweep.RunContext(context.Background(), axes, chainGen(t), sweep.Options{
		Workers: 2,
		Sample:  sweep.SampleOptions{Tolerance: tol, Verify: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PredictedPoints == 0 {
		t.Skip("grid too hard for the surrogate; nothing verified")
	}
	// Compare against an exhaustive sweep: after Verify, every point must
	// carry exact metrics.
	exact, err := sweep.RunContext(context.Background(), axes, chainGen(t), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Points {
		if pr.Run.FinalTimeNs != exact.Points[i].Run.FinalTimeNs {
			t.Fatalf("point %d: verified FinalTimeNs %d != exact %d", i, pr.Run.FinalTimeNs, exact.Points[i].Run.FinalTimeNs)
		}
		if pr.Source == sweep.SourcePredicted {
			if pr.PredObserved > tol {
				t.Fatalf("point %d observed error %g > tolerance %g", i, pr.PredObserved, tol)
			}
			if pr.PredObserved > res.Stats.MaxPredError {
				t.Fatalf("point %d observed %g > MaxPredError %g", i, pr.PredObserved, res.Stats.MaxPredError)
			}
		}
	}
}

// The per-scenario accuracy property: for every zoo scenario swept over
// smooth axes (fixed seed — the randomized token sizes stay fixed per
// point), a sampled sweep with Verify keeps every predicted metric
// within the declared tolerance of the exact result. Scenarios where
// the surrogate cannot converge simply simulate everything — also a
// pass: the contract is "never hand out a prediction worse than
// declared", not "always predict".
func TestEveryScenarioWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		scenario string
		axes     []sweep.Axis
	}{
		{"didactic", []sweep.Axis{periodAxis(20), {Name: "tokens", Values: []int64{300}}, {Name: "seed", Values: []int64{5}}}},
		{"chain", []sweep.Axis{periodAxis(20), {Name: "tokens", Values: []int64{250}}, {Name: "seed", Values: []int64{7}}, {Name: "stages", Values: []int64{3}}}},
		{"pipeline", []sweep.Axis{periodAxis(20), {Name: "xsize", Values: []int64{5}}, {Name: "tokens", Values: []int64{80}}, {Name: "seed", Values: []int64{3}}}},
		{"phased", []sweep.Axis{periodAxis(20), {Name: "tokens", Values: []int64{200}}, {Name: "seed", Values: []int64{11}}}},
		{"forkjoin", []sweep.Axis{periodAxis(20), {Name: "workers", Values: []int64{4}}, {Name: "tokens", Values: []int64{60}}, {Name: "seed", Values: []int64{2}}}},
		{"random", []sweep.Axis{{Name: "tokens", Values: []int64{40, 60, 80, 100, 120, 140, 160, 180, 200, 220, 240, 260}}, {Name: "seed", Values: []int64{9}}}},
	}
	const tol = 0.02
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scenario, func(t *testing.T) {
			t.Parallel()
			sc, err := zoo.LookupScenario(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			gen := func(p sweep.Point) (*model.Architecture, error) { return sc.Build(p), nil }
			res, err := sweep.RunContext(context.Background(), tc.axes, gen, sweep.Options{
				Workers: 2,
				Sample:  sweep.SampleOptions{Tolerance: tol, Verify: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.SimulatedPoints+st.PredictedPoints != st.Points {
				t.Fatalf("simulated %d + predicted %d != %d", st.SimulatedPoints, st.PredictedPoints, st.Points)
			}
			for i, pr := range res.Points {
				if pr.Err != nil {
					t.Fatalf("point %d: %v", i, pr.Err)
				}
				if pr.Source == sweep.SourcePredicted && pr.PredObserved > tol {
					t.Fatalf("point %d (%s) observed error %g > declared tolerance %g",
						i, pr.Point, pr.PredObserved, tol)
				}
			}
			t.Logf("%s: %d/%d simulated, %d predicted, max observed error %.4f",
				tc.scenario, st.SimulatedPoints, st.Points, st.PredictedPoints, st.MaxPredError)
		})
	}
}

// Tolerance = 0 disables sampling entirely: the sweep engine never calls
// this driver and the result is bit-identical to an exhaustive sweep —
// including the absence of source flags.
func TestToleranceZeroIsExhaustive(t *testing.T) {
	axes := []sweep.Axis{periodAxis(6), {Name: "tokens", Values: []int64{100}}, {Name: "seed", Values: []int64{7}}}
	sampled, err := sweep.RunContext(context.Background(), axes, chainGen(t), sweep.Options{
		Sample: sweep.SampleOptions{Tolerance: 0, Budget: 3, Verify: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sweep.RunContext(context.Background(), axes, chainGen(t), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Stats.SimulatedPoints != 0 || sampled.Stats.PredictedPoints != 0 {
		t.Fatalf("Tolerance=0 engaged the sampler: %+v", sampled.Stats)
	}
	for i := range plain.Points {
		a, b := sampled.Points[i], plain.Points[i]
		if a.Source != "" {
			t.Fatalf("point %d flagged %q without sampling", i, a.Source)
		}
		// Wall time is the one legitimately nondeterministic field.
		if a.Run.FinalTimeNs != b.Run.FinalTimeNs || a.Run.Iterations != b.Run.Iterations ||
			a.Run.Activations != b.Run.Activations || a.Run.Events != b.Run.Events {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.Run, b.Run)
		}
	}
}

// The Progress contract under sampling, including cancellation: done
// strictly increases, never exceeds the grid size, and reaches exactly
// the grid size both on completion and on a cancelled run — predicted
// points counted exactly once, verify re-simulations never counted.
func TestSampledProgressContract(t *testing.T) {
	axes := []sweep.Axis{periodAxis(16), {Name: "tokens", Values: []int64{150}}, {Name: "seed", Values: []int64{7}}}
	total := 16
	run := func(t *testing.T, cancelAt int, opts sweep.SampleOptions) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var mu sync.Mutex
		last := 0
		built := 0
		sc, err := zoo.LookupScenario("chain")
		if err != nil {
			t.Fatal(err)
		}
		gen := func(p sweep.Point) (*model.Architecture, error) {
			mu.Lock()
			built++
			if cancelAt > 0 && built == cancelAt {
				cancel()
			}
			mu.Unlock()
			return sc.Build(p), nil
		}
		res, err := sweep.RunContext(ctx, axes, gen, sweep.Options{
			Workers: 3,
			Sample:  opts,
			Progress: func(done, tot int) {
				mu.Lock()
				defer mu.Unlock()
				if tot != total {
					t.Errorf("progress total %d, want %d", tot, total)
				}
				if done <= last || done > tot {
					t.Errorf("progress not strictly monotonic: %d after %d", done, last)
				}
				last = done
			},
		})
		if cancelAt > 0 {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if last != total {
			t.Fatalf("progress stopped at %d/%d", last, total)
		}
		if got := len(res.Points); got != total {
			t.Fatalf("result has %d points, want %d", got, total)
		}
	}
	t.Run("completion", func(t *testing.T) { run(t, 0, sweep.SampleOptions{Tolerance: 0.02, Verify: true}) })
	t.Run("cancelMidSeed", func(t *testing.T) { run(t, 3, sweep.SampleOptions{Tolerance: 0.02}) })
	t.Run("cancelLate", func(t *testing.T) { run(t, 9, sweep.SampleOptions{Tolerance: 1e-12}) })
}

// Sampling composes with the batched lane path: cohorts form inside the
// driver's inner rounds and the batch counters surface in the stats.
func TestSamplingWithBatchedLanes(t *testing.T) {
	axes := []sweep.Axis{periodAxis(24), {Name: "tokens", Values: []int64{200}}, {Name: "seed", Values: []int64{7}}}
	res, err := sweep.RunContext(context.Background(), axes, chainGen(t), sweep.Options{
		Engine:     "adaptive",
		Workers:    2,
		BatchWidth: 4,
		Sample:     sweep.SampleOptions{Tolerance: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Batches == 0 || res.Stats.BatchedPoints == 0 {
		t.Fatalf("no batched evaluation under sampling: %+v", res.Stats)
	}
	if res.Stats.BatchedPoints != res.Stats.SimulatedPoints {
		t.Fatalf("batched %d != simulated %d", res.Stats.BatchedPoints, res.Stats.SimulatedPoints)
	}
}

// A grid the surrogate cannot learn to tolerance — one straddling the
// compute-bound/period-bound regime kink — must fall back to simulating
// every point rather than handing out predictions it cannot back.
func TestKinkedGridStaysHonest(t *testing.T) {
	vals := make([]int64, 16)
	for i := range vals {
		vals[i] = int64(800 + 40*i) // kink near ~940 for this seed
	}
	axes := []sweep.Axis{
		{Name: "period", Values: vals},
		{Name: "tokens", Values: []int64{200}},
		{Name: "seed", Values: []int64{7}},
		{Name: "stages", Values: []int64{2}},
	}
	res, err := sweep.RunContext(context.Background(), axes, chainGen(t), sweep.Options{
		Workers: 2,
		Sample:  sweep.SampleOptions{Tolerance: 0.005},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PredictedPoints != 0 || res.Stats.SimulatedPoints != 16 {
		t.Fatalf("kinked grid predicted anyway: %+v", res.Stats)
	}
}

// Index-subset sweeps (the distributed chunk path) must reject sampling
// outright: a shard cannot fit a grid-global surrogate.
func TestIndicesRejectSampling(t *testing.T) {
	axes := []sweep.Axis{periodAxis(4)}
	_, err := sweep.RunIndicesContext(context.Background(), axes, []int{0, 1}, chainGen(t), sweep.Options{
		Sample: sweep.SampleOptions{Tolerance: 0.01},
	})
	if err == nil {
		t.Fatal("index subset accepted sampling")
	}
}
