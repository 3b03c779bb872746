// Command dyncomp-bench measures every registered engine on the
// didactic scenario and writes the results as JSON, one object per
// engine with nanoseconds per point (one point = one full run of the
// scenario, best of -reps) and the kernel work paid. CI runs it on
// every build and uploads BENCH_engines.json as an artifact, so the
// per-engine cost trend is trackable across commits.
//
// It also measures the ComputeInstant hot path — the compiled Step cost
// per graph size, the batched cost per lane at several lane widths, and
// the allocation profile of a full equivalent-model run — into
// BENCH_compute.json. -compare takes the parent commit's dyncomp-bench
// binary and fails when a compiled or batched entry got more than 10%
// slower than the parent's on the same host (see compareCompute).
//
// A third report, BENCH_sweep.json, measures surrogate-guided sweep
// sampling on the Table-I chain grids: how many points the sampler
// simulates exactly, how many it predicts, and the verified maximum
// prediction error — per chain depth at the default tolerance, and
// per simulation budget on one grid (the accuracy-vs-budget curve).
// Unlike wall times these numbers are deterministic, so -sweep-compare
// guards them tightly: a build that simulates more points or predicts
// worse than the committed baseline fails.
//
//	dyncomp-bench -tokens 2000 -reps 3 -o BENCH_engines.json -compute-o BENCH_compute.json
//	dyncomp-bench -compute-o BENCH_compute.json -compare /path/to/parent/dyncomp-bench
//	dyncomp-bench -sweep-o BENCH_sweep.json -sweep-compare BENCH_sweep.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dyncomp/internal/core"
	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/sweep"
	"dyncomp/internal/tdg"
	"dyncomp/internal/zoo"

	// Link the four executors and the sweep-sampling driver into the
	// registries.
	_ "dyncomp/internal/adaptive"
	_ "dyncomp/internal/baseline"
	_ "dyncomp/internal/hybrid"
	_ "dyncomp/internal/surrogate"
)

type engineBench struct {
	Engine      string `json:"engine"`
	NsPerPoint  int64  `json:"ns_per_point"` // best-of-reps wall time of one run
	Events      int64  `json:"events"`
	Activations int64  `json:"activations"`
	GraphNodes  int    `json:"graph_nodes,omitempty"`
}

type benchReport struct {
	Scenario string        `json:"scenario"`
	Tokens   int           `json:"tokens"`
	Reps     int           `json:"reps"`
	Engines  []engineBench `json:"engines"`
}

// computeBench is one graph size of the ComputeInstant benchmark.
type computeBench struct {
	Nodes      int     `json:"nodes"`
	CompiledNs float64 `json:"compiled_ns_per_step"`
}

// batchBench is one (graph size, lane width) cell of the batched
// ComputeInstant benchmark: the amortized cost of advancing one lane by
// one iteration inside an N-wide batch, and its speed-up over the
// per-point compiled evaluator of the same graph.
type batchBench struct {
	Nodes          int     `json:"nodes"`
	Width          int     `json:"width"`
	NsPerStepPoint float64 `json:"ns_per_step_point"`
	SpeedUp        float64 `json:"speed_up_vs_compiled"`
}

// runBench is the allocation/latency profile of core.Model.Run.
type runBench struct {
	Scenario     string  `json:"scenario"`
	Tokens       int     `json:"tokens"`
	NsPerRun     int64   `json:"ns_per_run"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	AllocsPerIt  float64 `json:"allocs_per_iteration"`
}

type computeReport struct {
	Steps    int            `json:"steps_per_measurement"`
	Sizes    []computeBench `json:"sizes"`
	Batched  []batchBench   `json:"batched"`
	ModelRun runBench       `json:"model_run"`
}

// sweepBench is one sampled sweep of the accuracy-vs-budget report:
// a Table-I chain grid evaluated with surrogate-guided sampling, with
// every predicted point re-simulated (Verify) so max_pred_error is the
// measured error, not the model's own bound.
type sweepBench struct {
	Scenario      string  `json:"scenario"`
	Stages        int64   `json:"stages"`
	Points        int     `json:"points"`
	Tolerance     float64 `json:"tolerance"`
	Budget        int     `json:"budget,omitempty"` // 0: tolerance-driven
	Simulated     int     `json:"simulated"`
	Predicted     int     `json:"predicted"`
	SimulatedFrac float64 `json:"simulated_frac"`
	MaxPredError  float64 `json:"max_pred_error"`
	WallNs        int64   `json:"wall_ns"`
}

type sweepReport struct {
	Axes        string       `json:"axes"` // human-readable grid description
	Tolerance   float64      `json:"tolerance"`
	TableI      []sweepBench `json:"table1"`       // per chain depth, tolerance-driven
	BudgetCurve []sweepBench `json:"budget_curve"` // stages=2 grid per budget cap
}

func main() {
	tokens := flag.Int("tokens", 2000, "didactic workload size in tokens")
	reps := flag.Int("reps", 3, "repetitions per engine (best wall time wins)")
	out := flag.String("o", "BENCH_engines.json", "output file (- for stdout)")
	computeOut := flag.String("compute-o", "BENCH_compute.json", "ComputeInstant benchmark output file (- for stdout, empty to skip)")
	steps := flag.Int("steps", 20000, "Step calls per ComputeInstant measurement")
	compare := flag.String("compare", "", "parent commit's dyncomp-bench binary to guard against; runs both alternately and exits 1 if, at any compiled or batched entry, the median of the per-round ns/step ratios of this build over the parent's is above 1.10")
	sweepOut := flag.String("sweep-o", "BENCH_sweep.json", "sampled-sweep benchmark output file (- for stdout, empty to skip)")
	sweepCompare := flag.String("sweep-compare", "", "baseline BENCH_sweep.json to guard against; exits 1 if the sampler simulates more points or predicts worse")
	serveOut := flag.String("serve-o", "", "HTTP load benchmark output file (- for stdout, empty to skip)")
	serveCompare := flag.String("serve-compare", "", "baseline BENCH_serve.json to guard against; exits 1 on unstructured failures or a shed phase that never shed")
	serveClients := flag.Int("serve-clients", 8, "concurrent clients for the HTTP load benchmark")
	serveDuration := flag.Duration("serve-duration", 2*time.Second, "per-phase duration of the HTTP load benchmark")
	flag.Parse()

	if *reps < 1 {
		fatal(fmt.Errorf("-reps must be >= 1 (got %d)", *reps))
	}
	if *tokens < 1 {
		fatal(fmt.Errorf("-tokens must be >= 1 (got %d)", *tokens))
	}
	sc, err := zoo.LookupScenario("didactic")
	if err != nil {
		fatal(err)
	}
	params := zoo.ParamMap{"tokens": int64(*tokens)}
	report := benchReport{Scenario: sc.Name, Tokens: *tokens, Reps: *reps}
	ctx := context.Background()
	for _, name := range engine.Names() {
		eng, err := engine.Lookup(name)
		if err != nil {
			fatal(err)
		}
		opts := engine.Options{AbstractGroup: sc.GroupFor(name, params)}
		var best *engineBench
		for r := 0; r < *reps; r++ {
			res, err := eng.Run(ctx, sc.Build(params), opts)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			if best == nil || res.WallNs < best.NsPerPoint {
				best = &engineBench{
					Engine:      name,
					NsPerPoint:  res.WallNs,
					Events:      res.Events,
					Activations: res.Activations,
					GraphNodes:  res.GraphNodes,
				}
			}
		}
		report.Engines = append(report.Engines, *best)
	}

	writeJSON(*out, report)
	if *computeOut != "" {
		crep := computeInstantReport(*steps, *tokens)
		if *compare != "" {
			if err := compareCompute(*compare, *steps, *tokens); err != nil {
				writeJSON(*computeOut, crep)
				fatal(err)
			}
		}
		writeJSON(*computeOut, crep)
	}
	if *sweepOut != "" {
		srep := sweepSamplingReport()
		if *sweepCompare != "" {
			if err := compareSweep(*sweepCompare, srep); err != nil {
				writeJSON(*sweepOut, srep)
				fatal(err)
			}
		}
		writeJSON(*sweepOut, srep)
	}
	if *serveOut != "" {
		lrep := serveLoadReport(*serveClients, *serveDuration)
		if *serveCompare != "" {
			if err := compareServe(*serveCompare, lrep); err != nil {
				writeJSON(*serveOut, lrep)
				fatal(err)
			}
		}
		writeJSON(*serveOut, lrep)
	}
}

// sweepSamplingReport measures surrogate-guided sampling on the Table-I
// chain grids: a 16-point period axis in the source-dominated regime
// (the period exceeds every chain's aggregate compute time, so the
// metric surface is smooth — the regime the surrogate is for; kinked
// grids fall back to exhaustive simulation and are covered by the
// surrogate package's tests). Verify is on everywhere: max_pred_error
// is measured against exact re-simulation, never self-reported.
func sweepSamplingReport() sweepReport {
	const (
		tolerance   = 0.01
		sweepTokens = 250
		gridPoints  = 16
	)
	axes := []sweep.Axis{
		{Name: "period", Values: periodAxis(gridPoints)},
		{Name: "tokens", Values: []int64{sweepTokens}},
		{Name: "seed", Values: []int64{7}},
	}
	rep := sweepReport{
		Axes:      fmt.Sprintf("period=%d:%d:40; tokens=%d; seed=7", 1100, 1100+40*(gridPoints-1), sweepTokens),
		Tolerance: tolerance,
	}
	row := func(stages int64, budget int) sweepBench {
		gen := func(p sweep.Point) (*model.Architecture, error) {
			return zoo.DidacticChain(int(stages), zoo.DidacticSpec{
				Tokens: int(p.Get("tokens", sweepTokens)),
				Period: maxplus.T(p.Get("period", 1100)),
				Seed:   p.Get("seed", 7),
			}), nil
		}
		res, err := sweep.Run(axes, gen, sweep.Options{
			Sample: sweep.SampleOptions{Tolerance: tolerance, Budget: budget, Verify: true},
		})
		if err != nil {
			fatal(fmt.Errorf("sampled sweep (stages %d, budget %d): %w", stages, budget, err))
		}
		if res.Stats.Failed > 0 {
			fatal(fmt.Errorf("sampled sweep (stages %d, budget %d): %d points failed", stages, budget, res.Stats.Failed))
		}
		st := res.Stats
		return sweepBench{
			Scenario:      "chain",
			Stages:        stages,
			Points:        st.Points,
			Tolerance:     tolerance,
			Budget:        budget,
			Simulated:     st.SimulatedPoints,
			Predicted:     st.PredictedPoints,
			SimulatedFrac: float64(st.SimulatedPoints) / float64(st.Points),
			MaxPredError:  st.MaxPredError,
			WallNs:        st.Wall.Nanoseconds(),
		}
	}
	for stages := int64(1); stages <= 4; stages++ {
		rep.TableI = append(rep.TableI, row(stages, 0))
	}
	for _, budget := range []int{4, 6, 8, 10} {
		rep.BudgetCurve = append(rep.BudgetCurve, row(2, budget))
	}
	return rep
}

// periodAxis spans the source-dominated regime of the didactic chain;
// see sweepSamplingReport.
func periodAxis(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(1100 + 40*i)
	}
	return vals
}

// compareSweep guards the sampler against a committed baseline. The
// sampled-sweep numbers are deterministic (the grids are seeded and the
// surrogate has no randomness), so the guard is tight: every
// tolerance-driven row must keep its verified error within the
// tolerance while simulating at most 40% of the grid, and no row may
// simulate more points than the baseline plus one or predict worse than
// twice the baseline error.
func compareSweep(path string, fresh sweepReport) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-sweep-compare: %w", err)
	}
	var base sweepReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("-sweep-compare %s: %w", path, err)
	}
	type key struct {
		stages int64
		budget int
	}
	baseRows := map[key]sweepBench{}
	for _, rows := range [][]sweepBench{base.TableI, base.BudgetCurve} {
		for _, r := range rows {
			baseRows[key{r.Stages, r.Budget}] = r
		}
	}
	var bad []string
	check := func(r sweepBench, toleranceDriven bool) {
		name := fmt.Sprintf("stages %d budget %d", r.Stages, r.Budget)
		if toleranceDriven {
			if r.MaxPredError > r.Tolerance {
				bad = append(bad, fmt.Sprintf("%s: verified error %.4f above tolerance %.4f", name, r.MaxPredError, r.Tolerance))
			}
			if r.SimulatedFrac > 0.40 {
				bad = append(bad, fmt.Sprintf("%s: simulated %.0f%% of the grid (want <= 40%%)", name, 100*r.SimulatedFrac))
			}
		}
		b, ok := baseRows[key{r.Stages, r.Budget}]
		if !ok {
			return
		}
		if r.Simulated > b.Simulated+1 {
			bad = append(bad, fmt.Sprintf("%s: simulated %d points vs baseline %d", name, r.Simulated, b.Simulated))
		}
		if limit := 2 * b.MaxPredError; r.MaxPredError > limit && r.MaxPredError > r.Tolerance {
			bad = append(bad, fmt.Sprintf("%s: verified error %.4f vs baseline %.4f", name, r.MaxPredError, b.MaxPredError))
		}
	}
	for _, r := range fresh.TableI {
		check(r, true)
	}
	for _, r := range fresh.BudgetCurve {
		check(r, false)
	}
	if len(bad) > 0 {
		return fmt.Errorf("sampled sweep regressed against %s:\n  %s", path, strings.Join(bad, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "dyncomp-bench: sampled sweep within bounds of %s\n", path)
	return nil
}

// compareRounds is how many times compareCompute runs each binary.
const compareRounds = 5

// compareCompute guards the compiled and batched ComputeInstant paths
// against the parent commit's build. It runs the parent's dyncomp-bench
// and this binary as separate processes, compareRounds times each,
// alternating which of the two goes first. Each round pairs the two
// runs: per entry it takes this binary's ns/step over the parent's, and
// the guard fails when the median of those per-round ratios on any
// compiled or batched entry is above 1.10. Both runs of a round share
// the host's speed of those seconds, so the ratio cancels drift slower
// than a round; swings faster than that still show (EXPERIMENTS.md).
func compareCompute(parent string, steps, tokens int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("-compare: %w", err)
	}
	bins := [2]string{parent, self}
	var names []string
	ratios := map[string][]float64{}
	for r := 0; r < compareRounds; r++ {
		var round [2]map[string]float64 // parent's, then this build's
		for i := range bins {
			who := (i + r) % 2
			rep, err := runComputeReport(bins[who], steps, tokens)
			if err != nil {
				return fmt.Errorf("-compare: %s: %w", bins[who], err)
			}
			var order []string
			order, round[who] = entryValues(rep)
			if who == 1 {
				names = order
			}
		}
		for name, h := range round[1] {
			if b := round[0][name]; b > 0 && h > 0 {
				ratios[name] = append(ratios[name], h/b)
			}
		}
	}
	var bad []string
	compared := 0
	fmt.Fprintf(os.Stderr, "dyncomp-bench: median of per-round ns/step ratios over %d alternated rounds (parent %s)\n", compareRounds, parent)
	for _, name := range names {
		v := ratios[name]
		if len(v) == 0 {
			continue
		}
		compared++
		sort.Float64s(v)
		ratio := v[len(v)/2]
		fmt.Fprintf(os.Stderr, "  %-28s ratio %.3f  (rounds %s)\n", name, ratio, formatRatios(v))
		if ratio > 1.10 {
			bad = append(bad, fmt.Sprintf("%s: ns/step %.3fx the parent's (+%.0f%%)", name, ratio, 100*(ratio-1)))
		}
	}
	if compared == 0 {
		return fmt.Errorf("-compare: no entry in common with %s", parent)
	}
	if len(bad) > 0 {
		return fmt.Errorf("ComputeInstant regressed beyond 10%% of the parent build:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "dyncomp-bench: compiled and batched paths within 10%% of the parent build\n")
	return nil
}

// formatRatios lists sorted ratios for the guard's log line.
func formatRatios(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// runComputeReport runs one dyncomp-bench binary for its ComputeInstant
// report alone: engines at one repetition into the null device, no
// sweep report, the compute report on stdout.
func runComputeReport(bin string, steps, tokens int) (computeReport, error) {
	cmd := exec.Command(bin, "-tokens", strconv.Itoa(tokens), "-reps", "1", "-o", os.DevNull,
		"-steps", strconv.Itoa(steps), "-compute-o", "-", "-sweep-o", "")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return computeReport{}, err
	}
	var rep computeReport
	err = json.Unmarshal(out, &rep)
	return rep, err
}

// entryValues returns the name of every compiled and batched entry of
// one report, in report order, and each one's ns/step.
func entryValues(rep computeReport) ([]string, map[string]float64) {
	var names []string
	vals := map[string]float64{}
	add := func(name string, ns float64) {
		names = append(names, name)
		vals[name] = ns
	}
	for _, cb := range rep.Sizes {
		add(fmt.Sprintf("compiled %d nodes", cb.Nodes), cb.CompiledNs)
	}
	for _, bb := range rep.Batched {
		add(fmt.Sprintf("batched %d nodes x%d", bb.Nodes, bb.Width), bb.NsPerStepPoint)
	}
	return names, vals
}

// computeInstantReport measures the ComputeInstant hot path: the compiled
// Step cost per graph size (the Fig. 5 padded didactic graphs), the
// batched cost per lane at each lane width, and the allocation profile
// of a full equivalent-model run of the case-study receiver shape (here
// the didactic scenario for comparability with the engine benchmark).
func computeInstantReport(steps, tokens int) computeReport {
	rep := computeReport{Steps: steps}
	for _, nodes := range []int{10, 100, 1000, 3000} {
		dres, err := derive.Derive(
			zoo.Didactic(zoo.DidacticSpec{Tokens: 1, Period: 100, Seed: 1}),
			derive.Options{PadNodes: nodes - 7})
		if err != nil {
			fatal(err)
		}
		cv := dres.Program().NewEvaluator()
		cb := computeBench{Nodes: nodes, CompiledNs: stepCost(cv, steps)}
		cv.Release()
		rep.Sizes = append(rep.Sizes, cb)
		for _, width := range []int{1, 4, 8, 16, 32} {
			bb := batchBench{
				Nodes:          nodes,
				Width:          width,
				NsPerStepPoint: batchStepCost(nodes, width, steps),
			}
			if bb.NsPerStepPoint > 0 {
				bb.SpeedUp = cb.CompiledNs / bb.NsPerStepPoint
			}
			rep.Batched = append(rep.Batched, bb)
		}
	}
	rep.ModelRun = modelRunCost(tokens)
	return rep
}

// stepCost times one evaluator over the given number of Step calls and
// returns the nanoseconds per call (best of 3 measurements).
func stepCost(ev *tdg.Evaluator, steps int) float64 {
	u := []maxplus.T{0}
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < steps; i++ {
			u[0] = maxplus.T(i * 100)
			if _, err := ev.Step(u); err != nil {
				fatal(err)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(steps)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// batchStepCost times an N-wide batch evaluator over enough batched
// steps to advance roughly the scalar measurement's point-iteration
// count, and returns the nanoseconds per step per lane (best of 3).
// The lanes are weight-lane rebinds of one derived shape, exactly what
// a batched sweep dispatches.
func batchStepCost(nodes, width, steps int) float64 {
	archs := make([]*model.Architecture, width)
	for l := range archs {
		archs[l] = zoo.Didactic(zoo.DidacticSpec{Tokens: 1, Period: maxplus.T(100 + 10*l), Seed: int64(l + 1)})
	}
	base, err := derive.Derive(archs[0], derive.Options{PadNodes: nodes - 7})
	if err != nil {
		fatal(err)
	}
	lanes, err := derive.RebindBatch(base, archs)
	if err != nil {
		fatal(err)
	}
	progs := make([]*tdg.Program, width)
	for l, lane := range lanes {
		progs[l] = lane.Program()
	}
	be, err := tdg.NewBatchEvaluator(progs)
	if err != nil {
		fatal(err)
	}
	defer be.Release()
	nsteps := steps / width
	if nsteps < 500 {
		nsteps = 500
	}
	u := make([]maxplus.T, width)
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < nsteps; i++ {
			for lane := range u {
				u[lane] = maxplus.T(i * 100)
			}
			if _, err := be.Step(u); err != nil {
				fatal(err)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(nsteps*width)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// modelRunCost measures one reusable equivalent model end to end:
// nanoseconds and heap allocations per Run (after a warmup run so
// pooled buffers are at steady capacity), and the allocation count
// amortized per iteration — zero when the steady-state loop is clean.
func modelRunCost(tokens int) runBench {
	dres, err := derive.Derive(
		zoo.Didactic(zoo.DidacticSpec{Tokens: tokens, Period: 1200, Seed: 41}),
		derive.Options{})
	if err != nil {
		fatal(err)
	}
	m, err := core.New(dres)
	if err != nil {
		fatal(err)
	}
	if _, err := m.Run(core.Options{}); err != nil { // warmup
		fatal(err)
	}
	const reps = 5
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := m.Run(core.Options{}); err != nil {
			fatal(err)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / reps
	return runBench{
		Scenario:     "didactic",
		Tokens:       tokens,
		NsPerRun:     wall.Nanoseconds() / reps,
		AllocsPerRun: allocs,
		AllocsPerIt:  allocs / float64(tokens),
	}
}

func writeJSON(path string, v interface{}) {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dyncomp-bench: %v\n", err)
	os.Exit(1)
}
