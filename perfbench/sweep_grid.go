package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"dyncomp/internal/core"
	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/sweep"
	"dyncomp/internal/tdg"
	"dyncomp/internal/zoo"

	// Link the surrogate sampler into the sweep engine.
	_ "dyncomp/internal/surrogate"
)

// sweepGrid runs in-process design-space sweeps of the equivalent
// engine in batched lanes, sharing one derivation cache across ops, as
// a long-lived sweep user does. Derive hits and rebinds, batched lanes,
// core.RunBatch, the worker pool and (every fourth op) the surrogate
// dominate. A sweep user's unit of value is points per second.
var sweepGrid = &workload{
	name:          "sweep_grid",
	clients:       1,
	warmRotations: 1,
	setup:         setupSweepGrid,
}

const (
	sweepTokens     = 1000
	sweepWorkers    = 2
	sweepBatchWidth = 16
	sweepTolerance  = 0.01
	// sampledEvery makes op n sampled when n%sampledEvery is the last
	// slot of the rotation.
	sampledEvery = 4
	// predictedRelErr bounds a predicted point's final time against the
	// exact one. The surrogate's own tolerance is relative to the
	// training set's magnitude, so this check is a looser sanity bound.
	predictedRelErr = 0.05
)

type sweepGridInst struct {
	axes   []sweep.Axis
	gen    sweep.Generator
	cache  *derive.Cache
	golden []sweep.PointStats // by grid index

	// Accumulated by traced ops (one client, so no locking).
	tracing         bool
	hits0, misses0  int64
	occupancy, busy []float64
	simulatedFrac   []float64
}

// sweepParams adds the fixed token count to a grid point.
type sweepParams struct{ p sweep.Point }

func (s sweepParams) Lookup(name string) (int64, bool) {
	if name == "tokens" {
		return sweepTokens, true
	}
	return s.p.Lookup(name)
}

func setupSweepGrid(seed int64, _ bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	// Periods in the source-dominated regime of the didactic chains,
	// where the metric surface is smooth enough for the surrogate.
	periods := distinct(rng, 4, func() int64 { return 1100 + 20*rng.Int63n(31) })
	seeds := distinct(rng, 4, func() int64 { return 1 + rng.Int63n(1<<20) })
	inst := &sweepGridInst{
		axes: []sweep.Axis{
			{Name: "stages", Values: []int64{1, 2}},
			{Name: "period", Values: periods},
			{Name: "seed", Values: seeds},
		},
		gen: func(p sweep.Point) (*model.Architecture, error) {
			return zoo.DidacticFromParams(sweepParams{p}), nil
		},
		cache: derive.NewCache(),
	}
	// Golden per-point results: the per-point path on one worker with a
	// private cache.
	res, err := sweep.Run(inst.axes, inst.gen, sweep.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	if res.Stats.Failed > 0 {
		return nil, fmt.Errorf("golden sweep: %d points failed", res.Stats.Failed)
	}
	for _, pr := range res.Points {
		inst.golden = append(inst.golden, pr.Run)
	}
	return inst, nil
}

func distinct(rng *rand.Rand, n int, draw func() int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for len(out) < n {
		if v := draw(); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *sweepGridInst) rotation() int { return sampledEvery }

func (s *sweepGridInst) opts(sampled bool) sweep.Options {
	o := sweep.Options{Workers: sweepWorkers, BatchWidth: sweepBatchWidth, Cache: s.cache}
	if sampled {
		o.Sample = sweep.SampleOptions{Tolerance: sweepTolerance}
	}
	return o
}

func (s *sweepGridInst) op(_, n int, t *opTrace) (int, error) {
	sampled := n%sampledEvery == sampledEvery-1
	if t != nil && !s.tracing {
		s.tracing = true
		s.hits0, s.misses0 = s.cache.Stats()
	}
	tag := "exhaustive"
	if sampled {
		tag = "sampled"
	}
	var res *sweep.Result
	if err := t.timed("sweep.run", tag, func() (err error) {
		res, err = sweep.Run(s.axes, s.gen, s.opts(sampled))
		return err
	}); err != nil {
		return 0, err
	}
	if err := s.check(res, sampled); err != nil {
		return 0, err
	}
	if t != nil {
		st := res.Stats
		if sampled {
			s.simulatedFrac = append(s.simulatedFrac, float64(st.SimulatedPoints)/float64(st.Points))
		} else {
			var busy time.Duration
			for _, pr := range res.Points {
				busy += pr.Run.Wall
			}
			s.occupancy = append(s.occupancy, st.BatchOccupancy)
			s.busy = append(s.busy, float64(busy)/float64(sweepWorkers*st.Wall))
		}
	}
	return len(res.Points), nil
}

func (s *sweepGridInst) check(res *sweep.Result, sampled bool) error {
	if res.Stats.Failed > 0 || len(res.Points) != len(s.golden) {
		return fmt.Errorf("sweep: %d of %d points failed, %d expected", res.Stats.Failed, len(res.Points), len(s.golden))
	}
	if sampled && res.Stats.SimulatedPoints+res.Stats.PredictedPoints != len(s.golden) {
		return fmt.Errorf("sampled sweep: %d simulated + %d predicted of %d points",
			res.Stats.SimulatedPoints, res.Stats.PredictedPoints, len(s.golden))
	}
	for i, pr := range res.Points {
		g, r := s.golden[i], pr.Run
		if pr.Source == sweep.SourcePredicted {
			if e := math.Abs(float64(r.FinalTimeNs-g.FinalTimeNs)) / float64(g.FinalTimeNs); e > predictedRelErr {
				return fmt.Errorf("point %s: predicted final time %d is %.3f off the exact %d", pr.Point, r.FinalTimeNs, e, g.FinalTimeNs)
			}
			continue
		}
		if r.FinalTimeNs != g.FinalTimeNs || r.Events != g.Events || r.Activations != g.Activations || r.Iterations != g.Iterations {
			return fmt.Errorf("point %s: final %d events %d activations %d iterations %d, want %d %d %d %d",
				pr.Point, r.FinalTimeNs, r.Events, r.Activations, r.Iterations, g.FinalTimeNs, g.Events, g.Activations, g.Iterations)
		}
	}
	return nil
}

// layerReps is how many times each single-layer probe repeats.
const layerReps = 50

func (s *sweepGridInst) layers(rec *recorder) (map[string]float64, error) {
	if len(s.occupancy) == 0 || len(s.simulatedFrac) == 0 {
		return nil, fmt.Errorf("traced phase ran no full rotation")
	}
	hits, misses := s.cache.Stats()
	hits, misses = hits-s.hits0, misses-s.misses0
	out := map[string]float64{
		"derive.hit_ratio":         float64(hits) / float64(hits+misses),
		"sweep.batch_occupancy":    mean(s.occupancy),
		"sweep.pool_busy_share":    mean(s.busy),
		"surrogate.simulated_frac": mean(s.simulatedFrac),
	}

	start := time.Now()
	for r := 0; r < layerReps; r++ {
		if _, err := sweep.Grid(s.axes); err != nil {
			return nil, err
		}
	}
	out["sweep.grid_us"] = us(time.Since(start)) / layerReps

	// The grid's shape cohorts, as the sweep groups them.
	pts, err := sweep.Grid(s.axes)
	if err != nil {
		return nil, err
	}
	cohorts := map[int64][]*model.Architecture{}
	var order []int64
	for _, p := range pts {
		a, err := s.gen(p)
		if err != nil {
			return nil, err
		}
		st := p.Get("stages", 1)
		if cohorts[st] == nil {
			order = append(order, st)
		}
		cohorts[st] = append(cohorts[st], a)
	}

	var miss, hit, rebind, batchStep, runBatch time.Duration
	var derives, batches, laneSteps int
	for _, st := range order {
		archs := cohorts[st]
		var stMiss, stHit time.Duration
		probe := derive.NewCache()
		if _, err := probe.Derive(archs[0], derive.Options{}); err != nil {
			return nil, err
		}
		for r := 0; r < layerReps; r++ {
			a := archs[r%len(archs)]
			t0 := time.Now()
			if _, err := derive.Derive(a, derive.Options{}); err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, err := probe.Derive(a, derive.Options{}); err != nil {
				return nil, err
			}
			stMiss += t1.Sub(t0)
			stHit += time.Since(t1)
		}
		miss += stMiss
		hit += stHit
		derives += layerReps
		base, err := derive.Derive(archs[0], derive.Options{})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: sweep_grid stages %d (%d nodes): derive miss %.1f us, cache hit %.1f us\n",
			st, base.Graph.NodeCountWithDelays(), us(stMiss)/layerReps, us(stHit)/layerReps)

		for r := 0; r < layerReps/10; r++ {
			t0 := time.Now()
			lanes, err := derive.RebindBatch(base, archs)
			if err != nil {
				return nil, err
			}
			rebind += time.Since(t0)
			batches++

			d, steps, err := batchSteps(lanes, sweepTokens)
			if err != nil {
				return nil, err
			}
			batchStep += d
			laneSteps += steps

			t0 = time.Now()
			if _, _, err := core.RunBatch(lanes, core.BatchOptions{}); err != nil {
				return nil, err
			}
			runBatch += time.Since(t0)
		}
	}
	out["derive.miss_us"] = us(miss) / float64(derives)
	out["derive.hit_us"] = us(hit) / float64(derives)
	out["derive.rebind_batch_us"] = us(rebind) / float64(batches)
	out["tdg.batch_step_ns_per_lane"] = float64(batchStep.Nanoseconds()) / float64(laneSteps)
	out["core.batch_ms"] = ms(runBatch) / float64(batches)
	return out, nil
}

// batchSteps steps a batch evaluator over the lanes' programs iters
// times and returns the time taken and the lane steps it computed.
func batchSteps(lanes []*derive.Result, iters int) (time.Duration, int, error) {
	progs := make([]*tdg.Program, len(lanes))
	for i, l := range lanes {
		progs[i] = l.Program()
	}
	be, err := tdg.NewBatchEvaluator(progs)
	if err != nil {
		return 0, 0, err
	}
	defer be.Release()
	u := make([]maxplus.T, len(lanes)*len(lanes[0].Graph.Inputs()))
	start := time.Now()
	for k := 0; k < iters; k++ {
		for i := range u {
			u[i] = maxplus.T(1000 * k)
		}
		if _, err := be.Step(u); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), iters * be.ActiveLanes(), nil
}

func (s *sweepGridInst) close() {}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
