package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"dyncomp/internal/baseline"
	"dyncomp/internal/core"
	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"

	// Link the executors into the engine registry.
	_ "dyncomp/internal/adaptive"
	_ "dyncomp/internal/hybrid"
)

// engineRuns runs single simulations in-process, one engine.Run per op,
// with derivation paid per run as a command-line user pays it. The DES
// kernel and the equivalent model's boundary events dominate; HTTP,
// jobs and shards are bypassed.
var engineRuns = &workload{
	name:          "engine_runs",
	clients:       1,
	warmRotations: 1,
	setup:         setupEngineRuns,
}

const engineRunsTokens = 2000

// engineCase is one engine on one architecture.
type engineCase struct {
	scenario string
	build    func() *model.Architecture
	engine   string
	eng      engine.Engine
	opts     engine.Options
	golden   engine.Result
}

type engineRunsInst struct {
	cases []*engineCase // one rotation, in seeded order
	// Accumulated by traced ops (one client, so no locking).
	events   map[string]int64 // by engine
	switches int64
	adaptive int64 // adaptive runs
	refRuns  int64
	iters    map[string]int // equivalent iterations by scenario
}

func setupEngineRuns(seed int64, _ bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	archSeed := 1 + rng.Int63n(1<<20)
	inst := &engineRunsInst{events: map[string]int64{}, iters: map[string]int{}}
	for _, scen := range []struct {
		name   string
		params zoo.ParamMap
	}{
		{"didactic", zoo.ParamMap{"tokens": engineRunsTokens, "seed": archSeed}},
		{"chain", zoo.ParamMap{"stages": 4, "tokens": engineRunsTokens, "seed": archSeed}},
	} {
		sc, err := zoo.LookupScenario(scen.name)
		if err != nil {
			return nil, err
		}
		params := scen.params
		build := func() *model.Architecture { return sc.Build(params) }
		// The golden trace: every engine must reproduce the reference
		// executor's evolution instants bit for bit.
		var ref *observe.Trace
		for _, name := range []string{"reference", "equivalent", "hybrid", "adaptive"} {
			eng, err := engine.Lookup(name)
			if err != nil {
				return nil, err
			}
			c := &engineCase{
				scenario: scen.name, build: build, engine: name, eng: eng,
				opts: engine.Options{AbstractGroup: sc.GroupFor(name, params)},
			}
			recOpts := c.opts
			recOpts.Record = true
			res, err := eng.Run(context.Background(), build(), recOpts)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", name, scen.name, err)
			}
			if ref == nil {
				ref = res.Trace
			} else if err := observe.CompareInstants(ref, res.Trace); err != nil {
				return nil, fmt.Errorf("%s on %s differs from reference: %w", name, scen.name, err)
			}
			res.Trace = nil
			c.golden = *res
			inst.cases = append(inst.cases, c)
		}
	}
	rng.Shuffle(len(inst.cases), func(i, j int) { inst.cases[i], inst.cases[j] = inst.cases[j], inst.cases[i] })
	return inst, nil
}

func (e *engineRunsInst) rotation() int { return len(e.cases) }

func (e *engineRunsInst) op(_, n int, t *opTrace) (int, error) {
	c := e.cases[n%len(e.cases)]
	var (
		res *engine.Result
		err error
	)
	if t == nil {
		res, err = c.eng.Run(context.Background(), c.build(), c.opts)
	} else {
		res, err = e.tracedRun(c, t)
	}
	if err != nil {
		return 0, fmt.Errorf("%s on %s: %w", c.engine, c.scenario, err)
	}
	g := &c.golden
	if res.FinalTimeNs != g.FinalTimeNs || res.Events != g.Events || res.Activations != g.Activations {
		return 0, fmt.Errorf("%s on %s: final %d events %d activations %d, want %d %d %d",
			c.engine, c.scenario, res.FinalTimeNs, res.Events, res.Activations, g.FinalTimeNs, g.Events, g.Activations)
	}
	return 1, nil
}

// tracedRun runs the case with a span around each layer call: the
// reference executor through baseline.Run, the equivalent model as
// derive.Derive then core.New plus Model.Run — the calls its engine
// makes — and hybrid and adaptive whole, through their engines.
func (e *engineRunsInst) tracedRun(c *engineCase, t *opTrace) (*engine.Result, error) {
	a := c.build()
	var out engine.Result
	switch c.engine {
	case "reference":
		var res *baseline.Result
		if err := t.timed(engineSpan["reference"], c.scenario, func() (err error) {
			res, err = baseline.Run(a, baseline.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		out = engine.Result{Events: res.Stats.Events(), Activations: res.Stats.Activations, FinalTimeNs: int64(res.Stats.FinalTime)}
		e.refRuns++
	case "equivalent":
		var dres *derive.Result
		if err := t.timed("derive.derive", c.scenario, func() (err error) {
			dres, err = derive.Derive(a, derive.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		var res *core.Result
		if err := t.timed(engineSpan["equivalent"], c.scenario, func() error {
			m, err := core.New(dres)
			if err != nil {
				return err
			}
			res, err = m.Run(core.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		out = engine.Result{Events: res.Stats.Events(), Activations: res.Stats.Activations,
			FinalTimeNs: int64(res.Stats.FinalTime), Iterations: res.Iterations}
		e.iters[c.scenario] = res.Iterations
	default:
		var res *engine.Result
		if err := t.timed(engineSpan[c.engine], c.scenario, func() (err error) {
			res, err = c.eng.Run(context.Background(), a, c.opts)
			return err
		}); err != nil {
			return nil, err
		}
		out = *res
		if c.engine == "adaptive" {
			e.adaptive++
			e.switches += int64(res.Switches)
		}
	}
	e.events[c.engine] += out.Events
	return &out, nil
}

// engineSpan names the span of each engine's simulation in a traced
// run; the equivalent model's derivation has a span of its own.
var engineSpan = map[string]string{
	"reference":  "baseline.run",
	"equivalent": "core.run",
	"hybrid":     "hybrid.run",
	"adaptive":   "adaptive.run",
}

// stepReplays is how many times the ComputeInstant replay runs per
// scenario.
const stepReplays = 5

func (e *engineRunsInst) layers(rec *recorder) (map[string]float64, error) {
	lt := selfTimes(rec.snapshot())
	if e.refRuns == 0 || e.adaptive == 0 || len(e.iters) == 0 {
		return nil, fmt.Errorf("traced phase ran no full rotation")
	}
	out := map[string]float64{
		"sim.events_per_run":    float64(e.events["reference"]) / float64(e.refRuns),
		"sim.ns_per_event":      float64(lt["baseline.run"].self.Nanoseconds()) / float64(e.events["reference"]),
		"derive.miss_ms":        ms(lt["derive.derive"].meanSelf()),
		"core.run_ms":           ms(lt["core.run"].meanSelf()),
		"adaptive.events_ratio": float64(e.events["adaptive"]) / float64(e.events["reference"]),
		"adaptive.time_ratio":   float64(lt["adaptive.run"].self) / float64(lt["baseline.run"].self),
		"adaptive.switches":     float64(e.switches) / float64(e.adaptive),
		"hybrid.events_ratio":   float64(e.events["hybrid"]) / float64(e.events["reference"]),
		"hybrid.time_ratio":     float64(lt["hybrid.run"].self) / float64(lt["baseline.run"].self),
	}

	// ComputeInstant alone: replay tdg.Evaluator.Step on each
	// scenario's graph for as many iterations as its runs computed.
	// The kernel's share of core.run is what the replay does not
	// explain.
	var replay, run time.Duration
	var steps int
	for _, c := range e.cases {
		if c.engine != "equivalent" {
			continue
		}
		dres, err := derive.Derive(c.build(), derive.Options{})
		if err != nil {
			return nil, err
		}
		iters := e.iters[c.scenario]
		perStep, err := replaySteps(dres, iters)
		if err != nil {
			return nil, err
		}
		runs := lt["core.run|"+c.scenario]
		replay += time.Duration(float64(runs.n*iters) * perStep)
		run += runs.self
		steps += runs.n * iters
		fmt.Fprintf(os.Stderr, "perfbench: engine_runs %-8s %d nodes: tdg step %.0f ns, core.run %.3f ms for %d iterations\n",
			c.scenario, dres.Graph.NodeCountWithDelays(), perStep, ms(runs.meanSelf()), iters)
	}
	out["tdg.step_ns"] = float64(replay.Nanoseconds()) / float64(steps)
	out["core.kernel_share"] = 1 - float64(replay)/float64(run)

	for _, scen := range []string{"didactic", "chain"} {
		ref := e.golden("reference", scen)
		for _, name := range []string{"reference", "equivalent", "hybrid", "adaptive"} {
			tm := lt[engineSpan[name]+"|"+scen].meanSelf()
			if name == "equivalent" {
				tm += lt["derive.derive|"+scen].meanSelf()
			}
			g := e.golden(name, scen)
			fmt.Fprintf(os.Stderr, "perfbench: engine_runs %-8s %-10s %7d events (%.2fx reference), %8.3f ms (%.2fx reference), %d switches\n",
				scen, name, g.Events, float64(g.Events)/float64(ref.Events), ms(tm),
				float64(tm)/float64(lt["baseline.run|"+scen].meanSelf()), g.Switches)
		}
	}
	return out, nil
}

func (e *engineRunsInst) golden(engineName, scenario string) engine.Result {
	for _, c := range e.cases {
		if c.engine == engineName && c.scenario == scenario {
			return c.golden
		}
	}
	return engine.Result{}
}

// replaySteps steps a fresh evaluator of the derived graph iters times
// and returns the mean nanoseconds per step over stepReplays replays.
func replaySteps(dres *derive.Result, iters int) (float64, error) {
	prog := dres.Program()
	if prog == nil {
		return 0, fmt.Errorf("derivation has no compiled program")
	}
	u := make([]maxplus.T, len(dres.Graph.Inputs()))
	var total time.Duration
	for r := 0; r < stepReplays; r++ {
		ev := prog.NewEvaluator()
		start := time.Now()
		for k := 0; k < iters; k++ {
			for i := range u {
				u[i] = maxplus.T(1000 * k)
			}
			if _, err := ev.Step(u); err != nil {
				ev.Release()
				return 0, err
			}
		}
		total += time.Since(start)
		ev.Release()
	}
	return float64(total.Nanoseconds()) / float64(stepReplays*iters), nil
}

func (e *engineRunsInst) close() {}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
