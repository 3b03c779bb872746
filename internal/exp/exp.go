// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table I, Fig. 5, Fig. 6, the case
// study speed-up) plus the motivating loosely-timed trade-off, printing
// the same rows and series the paper reports.
//
// Absolute times depend on the host; the reproduced quantities are the
// shapes: event ratios, speed-ups tracking them, the complexity knee of
// Fig. 5, and the GOPS traces of Fig. 6.
package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"dyncomp/internal/baseline"
	"dyncomp/internal/core"
	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/ltdecoup"
	"dyncomp/internal/lte"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/sweep"
	"dyncomp/internal/zoo"
)

// Measurement is one timed simulation run.
type Measurement struct {
	Wall  time.Duration
	Stats sim.Stats
}

// runBaseline times one reference-executor run without tracing.
func runBaseline(a *model.Architecture) (Measurement, error) {
	start := time.Now()
	res, err := baseline.Run(a, baseline.Options{})
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Wall: time.Since(start), Stats: res.Stats}, nil
}

// runEquivalent derives the graph (outside the timed section, as the
// paper's models are generated before simulation), then times one
// equivalent-model run.
func runEquivalent(a *model.Architecture, opts derive.Options) (Measurement, int, error) {
	dres, err := derive.Derive(a, opts)
	if err != nil {
		return Measurement{}, 0, err
	}
	m, err := core.New(dres)
	if err != nil {
		return Measurement{}, 0, err
	}
	start := time.Now()
	res, err := m.Run(core.Options{})
	if err != nil {
		return Measurement{}, 0, err
	}
	return Measurement{Wall: time.Since(start), Stats: res.Stats}, dres.Graph.NodeCountWithDelays(), nil
}

// Table1Row is one row of the paper's Table I.
type Table1Row struct {
	Example     int
	Stages      int
	BaselineSec float64
	EventRatio  float64 // baseline activations / equivalent activations
	SpeedUp     float64 // baseline wall / equivalent wall
	Nodes       int     // temporal dependency graph nodes (paper counting)
}

// Table1 measures simulation speed-up on the chained didactic
// architectures (the paper's Examples 1-4) with the given token count
// (the paper uses 20000). The measurement runs through the sweep engine
// over a baseline-paired stage axis; a single worker keeps the per-point
// wall-clock times undisturbed by concurrency.
func Table1(tokens int, w io.Writer) ([]Table1Row, error) {
	axes := []sweep.Axis{{Name: "stages", Values: []int64{1, 2, 3, 4}}}
	gen := func(p sweep.Point) (*model.Architecture, error) {
		return zoo.DidacticChain(int(p.Get("stages", 1)),
			zoo.DidacticSpec{Tokens: tokens, Period: 1200, Seed: 41}), nil
	}
	res, err := sweep.Run(axes, gen, sweep.Options{Workers: 1, Engine: "equivalent", Baseline: true})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(res.Points))
	if w != nil {
		fmt.Fprintf(w, "Table I: measured simulation speed-up on distinct architecture models (%d tokens)\n", tokens)
		fmt.Fprintf(w, "%-10s %22s %12s %12s %8s\n", "Model", "baseline exec time (s)", "event ratio", "speed-up", "nodes")
	}
	for _, pr := range res.Points {
		if pr.Err != nil {
			return nil, pr.Err
		}
		stages := int(pr.Point.Get("stages", 0))
		row := Table1Row{
			Example:     stages,
			Stages:      stages,
			BaselineSec: pr.Baseline.Wall.Seconds(),
			EventRatio:  pr.EventRatio,
			SpeedUp:     pr.SpeedUp,
			Nodes:       pr.Run.GraphNodes,
		}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "Example %-3d %22.3f %12.2f %12.2f %8d\n",
				row.Example, row.BaselineSec, row.EventRatio, row.SpeedUp, row.Nodes)
		}
	}
	return rows, nil
}

// Fig5Point is one observation of the Fig. 5 sweep.
type Fig5Point struct {
	XSize   int
	Nodes   int // total graph nodes traversed by ComputeInstant
	SpeedUp float64
}

// Fig5 sweeps the computation-method complexity: for each X size
// (number of evolution instants, which fixes how many events the method
// saves), the temporal dependency graph is padded to growing node counts
// and the speed-up over the event-driven model is measured. Both halves
// run through the sweep engine: a reference sweep over the X-size axis
// gives the denominators, then an equivalent-model sweep over the
// (xsize × nodes) grid — with per-point pad options and a shared
// derivation cache — gives the numerators.
func Fig5(tokens int, xsizes, nodeCounts []int, w io.Writer) ([]Fig5Point, error) {
	if len(xsizes) == 0 {
		xsizes = []int{6, 10, 20, 30}
	}
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 3, 10, 30, 100, 300, 1000, 3000}
	}
	xvals := make([]int64, len(xsizes))
	for i, x := range xsizes {
		xvals[i] = int64(x)
	}
	nvals := make([]int64, len(nodeCounts))
	for i, n := range nodeCounts {
		nvals[i] = int64(n)
	}
	gen := func(p sweep.Point) (*model.Architecture, error) {
		return zoo.Pipeline(zoo.PipelineSpec{
			XSize: int(p.Get("xsize", 6)), Tokens: tokens, Period: 600, Seed: 17}), nil
	}

	// Reference baselines, one per X size.
	bres, err := sweep.Run([]sweep.Axis{{Name: "xsize", Values: xvals}}, gen,
		sweep.Options{Workers: 1, Engine: "reference"})
	if err != nil {
		return nil, err
	}
	baseWall := map[int64]float64{}
	for _, pr := range bres.Points {
		if pr.Err != nil {
			return nil, pr.Err
		}
		baseWall[pr.Point.Get("xsize", 0)] = pr.Run.Wall.Seconds()
	}

	// Unpadded graph sizes per X size; the derivations land in the cache
	// the equivalent sweep reuses.
	cache := derive.NewCache()
	baseNodes := map[int64]int{}
	for _, x := range xvals {
		dres, err := cache.Derive(zoo.Pipeline(zoo.PipelineSpec{
			XSize: int(x), Tokens: tokens, Period: 600, Seed: 17}), derive.Options{})
		if err != nil {
			return nil, err
		}
		baseNodes[x] = dres.Graph.NodeCount()
	}
	pad := func(p sweep.Point) int {
		d := int(p.Get("nodes", 0)) - baseNodes[p.Get("xsize", 0)]
		if d < 0 {
			d = 0
		}
		return d
	}

	eres, err := sweep.Run([]sweep.Axis{
		{Name: "xsize", Values: xvals},
		{Name: "nodes", Values: nvals},
	}, gen, sweep.Options{
		Workers: 1,
		Engine:  "equivalent",
		Cache:   cache,
		DeriveFor: func(p sweep.Point) derive.Options {
			return derive.Options{PadNodes: pad(p)}
		},
	})
	if err != nil {
		return nil, err
	}

	var pts []Fig5Point
	if w != nil {
		fmt.Fprintf(w, "Fig. 5: simulation speed-up vs computation method complexity (%d tokens)\n", tokens)
		fmt.Fprintf(w, "%-8s %-8s %-10s\n", "Xsize", "nodes", "speed-up")
	}
	for _, pr := range eres.Points {
		if pr.Err != nil {
			return nil, pr.Err
		}
		x := pr.Point.Get("xsize", 0)
		pt := Fig5Point{
			XSize:   int(x),
			Nodes:   baseNodes[x] + pad(pr.Point),
			SpeedUp: baseWall[x] / pr.Run.Wall.Seconds(),
		}
		pts = append(pts, pt)
		if w != nil {
			fmt.Fprintf(w, "%-8d %-8d %-10.2f\n", pt.XSize, pt.Nodes, pt.SpeedUp)
		}
	}
	return pts, nil
}

// AdaptiveRow is one engine's measurement on the phase-changing workload.
type AdaptiveRow struct {
	Engine      string
	Events      int64
	Activations int64
	WallSec     float64
}

// AdaptiveCompare measures every registered engine — the registry holds
// reference, equivalent, hybrid and adaptive — on the phase-changing
// didactic workload (the "phased" scenario with the default phase plan)
// and verifies that every trace is bit-exact against the reference
// executor. The reference row comes first, the others follow in registry
// (name) order. The equivalent model still pays kernel events at the
// architecture boundary (sources, reception and emission processes); the
// adaptive engine computes even the boundary from the graph and pays
// none, across plateaus and transients alike.
func AdaptiveCompare(tokens int, w io.Writer) ([]AdaptiveRow, error) {
	sc, err := zoo.LookupScenario("phased")
	if err != nil {
		return nil, err
	}
	params := zoo.ParamMap{"tokens": int64(tokens)}

	// Reference first: it is the base every other engine is checked
	// against.
	names := []string{"reference"}
	for _, n := range engine.Names() {
		if n != "reference" {
			names = append(names, n)
		}
	}

	var rows []AdaptiveRow
	var refTrace *observe.Trace
	ctx := context.Background()
	for _, name := range names {
		eng, err := engine.Lookup(name)
		if err != nil {
			return nil, err
		}
		opts := engine.Options{Record: true, AbstractGroup: sc.GroupFor(name, params)}
		if name == "hybrid" && opts.AbstractGroup == nil {
			continue
		}
		r, err := eng.Run(ctx, sc.Build(params), opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if name == "reference" {
			refTrace = r.Trace
		} else if err := observe.CompareInstants(refTrace, r.Trace); err != nil {
			return nil, fmt.Errorf("%s trace differs: %w", name, err)
		}
		rows = append(rows, AdaptiveRow{
			Engine:      name,
			Events:      r.Events,
			Activations: r.Activations,
			WallSec:     float64(r.WallNs) / 1e9,
		})
	}
	if w != nil {
		fmt.Fprintf(w, "All registered engines on the phase-changing workload (%d tokens), all traces bit-exact:\n", tokens)
		fmt.Fprintf(w, "%-12s %12s %12s %10s\n", "engine", "events", "activations", "wall (s)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %12d %12d %10.3f\n", r.Engine, r.Events, r.Activations, r.WallSec)
		}
	}
	return rows, nil
}

// Fig6Data holds the case-study observation of Fig. 6: input/output
// instants over the simulation time and per-resource complexity series
// over the observation time.
type Fig6Data struct {
	U, Y []maxplus.T
	DSP  *observe.Series
	HW   *observe.Series
}

// Fig6 runs the equivalent model of the LTE receiver over the given
// number of frames and reconstructs the Fig. 6 observations (the paper
// shows one frame of 14 symbols over 1000 µs).
func Fig6(frames int, w io.Writer) (*Fig6Data, error) {
	if frames <= 0 {
		frames = 1
	}
	symbols := frames * lte.SymbolsPerFrame
	a := lte.Receiver(lte.Spec{Symbols: symbols, Seed: 23})
	dres, err := derive.Derive(a, derive.Options{})
	if err != nil {
		return nil, err
	}
	m, err := core.New(dres)
	if err != nil {
		return nil, err
	}
	trace := observe.NewTrace("lte-equivalent")
	if _, err := m.Run(core.Options{Trace: trace}); err != nil {
		return nil, err
	}

	data := &Fig6Data{
		U: trace.Instants("Sym"),
		Y: trace.Instants("D8"),
	}
	end := trace.EndTime()
	window := maxplus.T(int64(frames) * lte.SymbolsPerFrame * int64(lte.SymbolPeriod))
	if end < window {
		end = window
	}
	const bin = maxplus.T(10_000) // 10 µs bins
	if data.DSP, err = trace.ComplexitySeries("DSP", 0, end, bin); err != nil {
		return nil, err
	}
	if data.HW, err = trace.ComplexitySeries("HW", 0, end, bin); err != nil {
		return nil, err
	}

	if w != nil {
		fmt.Fprintf(w, "Fig. 6 (a): evolution over the simulation time (%d frames)\n", frames)
		for k := 0; k < len(data.U) && k < 2*lte.SymbolsPerFrame; k++ {
			fmt.Fprintf(w, "  u(%2d) = %8d ns    y(%2d) = %8d ns\n", k, int64(data.U[k]), k, int64(data.Y[k]))
		}
		fmt.Fprintf(w, "Fig. 6 (b): DSP complexity, peak %.2f GOPS\n", data.DSP.Max())
		fmt.Fprintf(w, "Fig. 6 (c): HW decoder complexity, peak %.2f GOPS\n", data.HW.Max())
	}
	return data, nil
}

// CaseStudyResult is the Section V speed-up measurement.
type CaseStudyResult struct {
	Symbols    int
	EventRatio float64
	SpeedUp    float64
	Nodes      int
}

// CaseStudy measures the LTE receiver speed-up (the paper: factor 4 at
// event ratio 4.2 for 20000 symbols).
func CaseStudy(symbols int, w io.Writer) (*CaseStudyResult, error) {
	a := lte.Receiver(lte.Spec{Symbols: symbols, Seed: 23})
	mb, err := runBaseline(a)
	if err != nil {
		return nil, err
	}
	me, nodes, err := runEquivalent(lte.Receiver(lte.Spec{Symbols: symbols, Seed: 23}), derive.Options{Reduce: true})
	if err != nil {
		return nil, err
	}
	res := &CaseStudyResult{
		Symbols:    symbols,
		EventRatio: float64(mb.Stats.Activations) / float64(me.Stats.Activations),
		SpeedUp:    mb.Wall.Seconds() / me.Wall.Seconds(),
		Nodes:      nodes,
	}
	if w != nil {
		fmt.Fprintf(w, "Case study (%d symbols): event ratio %.2f, speed-up %.2f, %d graph nodes\n",
			res.Symbols, res.EventRatio, res.SpeedUp, res.Nodes)
	}
	return res, nil
}

// AccuracyReport verifies the bit-exactness claim on a given architecture
// builder: the named engine's trace (any name from engine.Names; the
// hybrid engine additionally needs the group to abstract) is compared
// against the reference executor's, returning the number of compared
// instants.
func AccuracyReport(build func() *model.Architecture, engineName string, group []string, w io.Writer) (int, error) {
	ctx := context.Background()
	ref, err := engine.Lookup("reference")
	if err != nil {
		return 0, err
	}
	rr, err := ref.Run(ctx, build(), engine.Options{Record: true})
	if err != nil {
		return 0, err
	}
	eng, err := engine.Lookup(engineName)
	if err != nil {
		return 0, err
	}
	er, err := eng.Run(ctx, build(), engine.Options{Record: true, AbstractGroup: group})
	if err != nil {
		return 0, err
	}
	if err := observe.CompareInstants(rr.Trace, er.Trace); err != nil {
		return 0, err
	}
	n := 0
	for _, label := range rr.Trace.Labels() {
		n += len(rr.Trace.Instants(label))
	}
	if w != nil {
		fmt.Fprintf(w, "accuracy: %d evolution instants identical between the reference executor and the %s engine\n", n, engineName)
	}
	return n, nil
}

// QuantumRow is one point of the loosely-timed trade-off ablation.
type QuantumRow struct {
	Quantum    sim.Time
	SpeedUp    float64
	MeanAbsErr float64 // ticks
}

// QuantumSweep measures the TLM-LT speed/accuracy trade-off the paper's
// introduction criticises, against the same baseline the equivalent model
// is compared to. The equivalent model's row is appended with quantum 0
// (exact by construction).
func QuantumSweep(tokens int, quanta []sim.Time, w io.Writer) ([]QuantumRow, error) {
	if len(quanta) == 0 {
		quanta = []sim.Time{1_000, 10_000, 100_000, 1_000_000}
	}
	spec := zoo.DidacticSpec{Tokens: tokens, Period: 900, Seed: 31}
	bt := observe.NewTrace("baseline")
	start := time.Now()
	if _, err := baseline.Run(zoo.Didactic(spec), baseline.Options{Trace: bt}); err != nil {
		return nil, err
	}
	baseWall := time.Since(start)

	var rows []QuantumRow
	if w != nil {
		fmt.Fprintf(w, "Loosely-timed trade-off (%d tokens, baseline %.3fs):\n", tokens, baseWall.Seconds())
		fmt.Fprintf(w, "%-12s %-10s %-14s\n", "quantum(ns)", "speed-up", "mean |err| ns")
	}
	for _, q := range quanta {
		lt := observe.NewTrace("lt")
		start := time.Now()
		if _, err := ltdecoup.Run(zoo.Didactic(spec), ltdecoup.Options{Quantum: q, Trace: lt}); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		row := QuantumRow{
			Quantum:    q,
			SpeedUp:    baseWall.Seconds() / wall.Seconds(),
			MeanAbsErr: observe.MeanAbsInstantError(bt, lt),
		}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "%-12d %-10.2f %-14.1f\n", int64(row.Quantum), row.SpeedUp, row.MeanAbsErr)
		}
	}

	// The dynamic computation method: speed-up with zero error.
	dres, err := derive.Derive(zoo.Didactic(spec), derive.Options{})
	if err != nil {
		return nil, err
	}
	m, err := core.New(dres)
	if err != nil {
		return nil, err
	}
	et := observe.NewTrace("equivalent")
	start = time.Now()
	if _, err := m.Run(core.Options{Trace: et}); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	row := QuantumRow{
		Quantum:    0,
		SpeedUp:    baseWall.Seconds() / wall.Seconds(),
		MeanAbsErr: observe.MeanAbsInstantError(bt, et),
	}
	rows = append(rows, row)
	if w != nil {
		fmt.Fprintf(w, "%-12s %-10.2f %-14.1f (dynamic computation method)\n", "exact", row.SpeedUp, row.MeanAbsErr)
	}
	return rows, nil
}
