// Command dyncomp-sweep explores a design space: it expands a grid of
// named parameter axes, builds one architecture per grid point from a
// registered scenario or an inline JSON architecture, and evaluates
// every point concurrently with any registered engine, deriving each
// structural shape's temporal dependency graph only once.
//
//	dyncomp-sweep -scenario pipeline -axes "xsize=6,10,20;tokens=1000" -workers 8
//	dyncomp-sweep -scenario didactic -axes "stages=1:4:1;period=800,1200" -baseline
//	dyncomp-sweep -scenario forkjoin -engine hybrid -axes "workers=2:6:1;tokens=1000"
//	dyncomp-sweep -scenario lte -axes "symbols=1000,2000" -format json
//	dyncomp-sweep -scenario chain -axes "period=1100:1700:40;tokens=250" -tolerance 0.01 -verify
//	dyncomp-sweep -arch soc.json
//	dyncomp-sweep -arch soc.json -optimize -objective final_time -constraint "power<=300;area<=12"
//	dyncomp-sweep -list
//
// -arch sweeps an inline JSON architecture (docs/MODEL_FORMAT.md)
// instead of a registered scenario; without -axes, the grid spans the
// candidate values the spec's parameters declare. -optimize (requires
// -arch) searches that design space for the Pareto front of -objective
// (cycle_mean | final_time) against the spec's analytic cost metrics,
// under the -constraint budgets ("metric<=max", semicolon-separated);
// -budget caps its exact simulations and -exhaustive forces brute
// force.
//
// -list prints the full engine × scenario matrix: every engine
// registered in the engine registry and every scenario in the scenario
// registry, with its parameter names. Any engine runs any scenario.
//
// Axis syntax: semicolon-separated "name=v1,v2,..." lists, where each
// item is an integer or a lo:hi:step range (inclusive). Axis names must
// be parameters of the scenario or spec.
//
// -engine selects the per-point executor by registered name (default
// equivalent). The hybrid engine abstracts the scenario's canonical
// function group, or the -group override ("F3,F4"). -format
// selects table (default), csv or json; -baseline pairs every point
// with an event-driven reference run and reports event ratios and
// speed-ups.
//
// -tolerance enables surrogate-guided sampling: the sweep simulates a
// seed subset of the grid exactly, fits an analytical model per metric,
// and predicts the remaining points once the model's cross-validated
// error is within the tolerance. Predicted rows are flagged in every
// output format. -sample caps the number of exact simulations; -verify
// re-simulates every predicted point afterwards and reports the maximum
// observed prediction error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"dyncomp/internal/archjson"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/optimize"
	"dyncomp/internal/sim"
	"dyncomp/internal/sweep"
	"dyncomp/internal/zoo"

	// The LTE case study registers its scenario in init; the surrogate
	// package registers the sampling driver behind -tolerance.
	_ "dyncomp/internal/lte"
	_ "dyncomp/internal/surrogate"
)

func main() {
	scenario := flag.String("scenario", "pipeline", "architecture scenario: "+strings.Join(zoo.ScenarioNames(), "|"))
	archFile := flag.String("arch", "", "inline JSON architecture file (instead of -scenario)")
	optimizeFlag := flag.Bool("optimize", false, "search the -arch design space for the Pareto front instead of sweeping")
	objective := flag.String("objective", "", "optimizer objective: cycle_mean|final_time (default cycle_mean)")
	constraint := flag.String("constraint", "", `optimizer budgets, e.g. "power<=300;area<=12"`)
	budget := flag.Int("budget", 0, "optimizer cap on exact simulations (0: no cap)")
	exhaustive := flag.Bool("exhaustive", false, "optimizer brute force: simulate every feasible point")
	axesSpec := flag.String("axes", "", `grid axes, e.g. "xsize=6,10,20;tokens=500:2000:500"`)
	workers := flag.Int("workers", 0, "worker-pool size (0: all processors)")
	batch := flag.Int("batch", 0, "batched-evaluation lane width for same-shape points (0: per-point)")
	engName := flag.String("engine", sweep.DefaultEngine, "per-point executor: "+strings.Join(engine.Names(), "|"))
	group := flag.String("group", "", `functions the hybrid engine abstracts, comma-separated (default: the scenario's canonical group)`)
	tolerance := flag.Float64("tolerance", 0, "relative prediction tolerance enabling surrogate-guided sampling (0: simulate every point)")
	sample := flag.Int("sample", 0, "cap on exact simulations when sampling (0: no cap)")
	verify := flag.Bool("verify", false, "re-simulate predicted points and report the observed error")
	baseline := flag.Bool("baseline", false, "pair every point with a reference-executor run")
	reduce := flag.Bool("reduce", false, "prune value-redundant arcs from derived graphs")
	limit := flag.Int64("limit", 0, "simulated-time bound per point in ns (0: to completion)")
	format := flag.String("format", "table", "output format: table|csv|json")
	list := flag.Bool("list", false, "print the engine × scenario matrix and exit")
	flag.Parse()

	if *list {
		printMatrix(os.Stdout)
		return
	}
	switch *format {
	case "table", "csv", "json":
	default:
		fatal(fmt.Errorf("unknown format %q (table|csv|json)", *format))
	}
	if _, err := engine.Lookup(*engName); err != nil {
		fatal(err)
	}
	scenarioSet := false
	flag.Visit(func(f *flag.Flag) { scenarioSet = scenarioSet || f.Name == "scenario" })
	if *archFile != "" && scenarioSet {
		fatal(fmt.Errorf("-arch and -scenario are mutually exclusive"))
	}
	src, spec, err := loadModel(*scenario, *archFile)
	if err != nil {
		fatal(err)
	}
	if *optimizeFlag {
		if spec == nil {
			fatal(fmt.Errorf("-optimize requires -arch (the optimizer searches a spec's declared parameter values)"))
		}
		cons, err := parseConstraints(*constraint)
		if err != nil {
			fatal(err)
		}
		grp := parseGroup(*group)
		if *engName == "hybrid" && grp == nil {
			grp = src.Group(zoo.ParamMap{})
		}
		res, err := optimize.Run(context.Background(), spec, optimize.Options{
			Engine:      *engName,
			Workers:     *workers,
			BatchWidth:  *batch,
			Objective:   *objective,
			Constraints: cons,
			Budget:      *budget,
			Exhaustive:  *exhaustive,
			Group:       grp,
		})
		if err != nil {
			fatal(err)
		}
		if err := writeFront(os.Stdout, res, *format); err != nil {
			fatal(err)
		}
		return
	}
	axes, err := gridAxes(src, spec, *axesSpec)
	if err != nil {
		fatal(err)
	}

	if *tolerance < 0 {
		fatal(fmt.Errorf("-tolerance must be >= 0, got %g", *tolerance))
	}
	if (*sample > 0 || *verify) && *tolerance == 0 {
		fatal(fmt.Errorf("-sample and -verify require -tolerance > 0"))
	}

	opts := sweep.Options{
		Workers:    *workers,
		Engine:     *engName,
		Baseline:   *baseline,
		BatchWidth: *batch,
		Sample: sweep.SampleOptions{
			Tolerance: *tolerance,
			Budget:    *sample,
			Verify:    *verify,
		},
	}
	if *engName == "hybrid" {
		if *group != "" {
			opts.Group = parseGroup(*group)
		} else if src.Group(zoo.ParamMap{}) == nil {
			fatal(fmt.Errorf("%v has no canonical hybrid group; use -group", src))
		} else {
			// Per point: axes may change the structure and with it the
			// group (e.g. sweeping the fork-join worker count).
			opts.GroupFor = func(p sweep.Point) []string { return src.Group(p) }
		}
	}
	opts.Derive.Reduce = *reduce
	if *limit > 0 {
		opts.Limit = sim.Time(*limit)
	}
	gen := func(p sweep.Point) (*model.Architecture, error) { return src.Build(p) }
	res, err := sweep.Run(axes, gen, opts)
	if err != nil {
		fatal(err)
	}

	sampled := opts.Sample.Enabled()
	switch *format {
	case "table":
		err = writeTable(os.Stdout, res, *baseline, sampled)
	case "csv":
		err = writeCSV(os.Stdout, res, *baseline, sampled)
	case "json":
		err = writeJSON(os.Stdout, res)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	if res.Stats.Failed > 0 {
		fmt.Fprintf(os.Stderr, "dyncomp-sweep: %d of %d points failed\n", res.Stats.Failed, res.Stats.Points)
		for _, pr := range res.Points {
			if pr.Err != nil {
				fmt.Fprintf(os.Stderr, "  %v\n", pr.Err)
			}
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dyncomp-sweep: %v\n", err)
	os.Exit(1)
}

// printMatrix lists every registered engine and scenario: the CLI runs
// any combination of them.
func printMatrix(w *os.File) {
	fmt.Fprintln(w, "engines (any engine runs any scenario):")
	for _, n := range engine.Names() {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintln(w, "scenarios:")
	for _, sc := range zoo.Scenarios() {
		hybrid := ""
		if sc.HybridGroup == nil {
			hybrid = "   (no canonical hybrid group: -group required for -engine hybrid)"
		}
		fmt.Fprintf(w, "  %-10s %s\n", sc.Name, sc.Desc)
		fmt.Fprintf(w, "  %-10s params: %s%s\n", "", sc.ParamsHelp, hybrid)
	}
}

// loadModel resolves the model to evaluate: the spec in archFile when
// one is given (also returned, for the optimizer), else the registered
// scenario.
func loadModel(scenario, archFile string) (zoo.Source, *archjson.Spec, error) {
	if archFile == "" {
		sc, err := zoo.LookupScenario(scenario)
		return sc.Source(), nil, err
	}
	data, err := os.ReadFile(archFile)
	if err != nil {
		return zoo.Source{}, nil, err
	}
	spec, err := archjson.Decode(data)
	if err != nil {
		return zoo.Source{}, nil, err
	}
	return spec.Source(), spec, nil
}

// gridAxes parses the -axes grid and checks its names against the
// model's parameters: a typoed axis would sweep a knob the builder
// never reads, evaluating one point N times. A spec without -axes
// spans the candidate values its parameters declare.
func gridAxes(src zoo.Source, spec *archjson.Spec, axesSpec string) ([]sweep.Axis, error) {
	if spec != nil && strings.TrimSpace(axesSpec) == "" {
		axes := specAxes(spec)
		if len(axes) == 0 {
			return nil, fmt.Errorf("architecture %q declares no parameter values; give -axes", spec.Name)
		}
		return axes, nil
	}
	axes, err := parseAxes(axesSpec)
	if err != nil {
		return nil, err
	}
	names := map[string]int64{}
	for _, ax := range axes {
		names[ax.Name] = 0
	}
	return axes, src.CheckParams(names)
}

// parseGroup splits the -group override into function names.
func parseGroup(spec string) []string {
	var group []string
	for _, f := range strings.Split(spec, ",") {
		if f = strings.TrimSpace(f); f != "" {
			group = append(group, f)
		}
	}
	return group
}

// specAxes turns a spec's declared candidate values into grid axes,
// in declaration order.
func specAxes(spec *archjson.Spec) []sweep.Axis {
	var axes []sweep.Axis
	for i := range spec.Parameters {
		p := &spec.Parameters[i]
		if len(p.Values) > 0 {
			axes = append(axes, sweep.Axis{Name: p.Name, Values: append([]int64(nil), p.Values...)})
		}
	}
	return axes
}

// parseConstraints parses "power<=300;area<=12" into optimizer budgets.
func parseConstraints(spec string) ([]optimize.Constraint, error) {
	var cons []optimize.Constraint
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		metric, max, ok := strings.Cut(part, "<=")
		if !ok {
			return nil, fmt.Errorf("constraint %q: want metric<=max", part)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(max), 64)
		if err != nil {
			return nil, fmt.Errorf("constraint %q: %w", part, err)
		}
		cons = append(cons, optimize.Constraint{Metric: strings.TrimSpace(metric), Max: v})
	}
	return cons, nil
}

// writeFront renders an optimization result: the Pareto front first,
// then the search summary.
func writeFront(w *os.File, res *optimize.Result, format string) error {
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	var names []string
	if len(res.Front) > 0 {
		for n := range res.Front[0].Params {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	if format == "csv" {
		cols := append(append([]string{}, names...), "objective", "area", "power", "origin")
		fmt.Fprintln(w, strings.Join(cols, ","))
		for _, p := range res.Front {
			row := make([]string, 0, len(cols))
			for _, n := range names {
				row = append(row, strconv.FormatInt(p.Params[n], 10))
			}
			row = append(row,
				fmt.Sprintf("%.4f", p.Objective),
				fmt.Sprintf("%.4f", p.Area),
				fmt.Sprintf("%.4f", p.Power),
				p.Origin)
			fmt.Fprintln(w, strings.Join(row, ","))
		}
		return nil
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-10s ", n)
	}
	fmt.Fprintf(w, "%14s %10s %10s %-10s\n", res.Objective, "area", "power", "origin")
	for _, p := range res.Front {
		for _, n := range names {
			fmt.Fprintf(w, "%-10d ", p.Params[n])
		}
		fmt.Fprintf(w, "%14.2f %10.2f %10.2f %-10s\n", p.Objective, p.Area, p.Power, p.Origin)
	}
	fmt.Fprintf(w, "\n%d front, %d feasible of %d grid points, %d simulated", len(res.Front), res.Feasible, res.GridPoints, res.Simulated)
	if res.Exhaustive {
		fmt.Fprintf(w, ", exhaustive")
	}
	if !res.Converged {
		fmt.Fprintf(w, ", budget exhausted before convergence")
	}
	fmt.Fprintln(w)
	return nil
}

// parseAxes parses "a=1,2,3;b=10:30:10" into grid axes.
func parseAxes(spec string) ([]sweep.Axis, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("no axes given (-axes \"name=v1,v2,...\")")
	}
	var axes []sweep.Axis
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, list, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("axis %q: want name=values", part)
		}
		ax := sweep.Axis{Name: strings.TrimSpace(name)}
		for _, item := range strings.Split(list, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			vals, err := parseItem(item)
			if err != nil {
				return nil, fmt.Errorf("axis %q: %w", ax.Name, err)
			}
			ax.Values = append(ax.Values, vals...)
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// parseItem parses one integer or one inclusive lo:hi:step range.
func parseItem(item string) ([]int64, error) {
	if !strings.Contains(item, ":") {
		v, err := strconv.ParseInt(item, 10, 64)
		if err != nil {
			return nil, err
		}
		return []int64{v}, nil
	}
	parts := strings.Split(item, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("range %q: want lo:hi:step", item)
	}
	var lo, hi, step int64
	for i, dst := range []*int64{&lo, &hi, &step} {
		v, err := strconv.ParseInt(strings.TrimSpace(parts[i]), 10, 64)
		if err != nil {
			return nil, err
		}
		*dst = v
	}
	if step <= 0 || hi < lo {
		return nil, fmt.Errorf("range %q: want lo <= hi and step > 0", item)
	}
	var vals []int64
	for v := lo; v <= hi; v += step {
		vals = append(vals, v)
	}
	return vals, nil
}

func writeTable(w *os.File, res *sweep.Result, baseline, sampled bool) error {
	if len(res.Points) == 0 {
		return nil
	}
	for _, n := range res.Points[0].Point.Names {
		fmt.Fprintf(w, "%-10s ", n)
	}
	fmt.Fprintf(w, "%12s %12s %14s %8s %12s", "activations", "events", "final(ns)", "nodes", "wall")
	if baseline {
		fmt.Fprintf(w, " %12s %10s", "event ratio", "speed-up")
	}
	if sampled {
		fmt.Fprintf(w, " %-9s %10s", "source", "pred err")
	}
	fmt.Fprintln(w)
	for _, pr := range res.Points {
		if pr.Err != nil {
			fmt.Fprintf(w, "%s: ERROR %v\n", pr.Point, pr.Err)
			continue
		}
		for _, v := range pr.Point.Values {
			fmt.Fprintf(w, "%-10d ", v)
		}
		fmt.Fprintf(w, "%12d %12d %14d %8d %12s",
			pr.Run.Activations, pr.Run.Events, pr.Run.FinalTimeNs, pr.Run.GraphNodes, pr.Run.Wall)
		if baseline {
			ratio := "n/a" // the engine ran no activation
			if pr.Run.Activations > 0 {
				ratio = fmt.Sprintf("%.2f", pr.EventRatio)
			}
			fmt.Fprintf(w, " %12s %10.2f", ratio, pr.SpeedUp)
		}
		if sampled {
			// Observed error when -verify measured one, declared bound
			// otherwise; simulated rows carry no error at all.
			switch pr.Source {
			case sweep.SourcePredicted:
				e := pr.PredBound
				if pr.PredObserved > 0 {
					e = pr.PredObserved
				}
				fmt.Fprintf(w, " %-9s %10.4f", pr.Source, e)
			default:
				fmt.Fprintf(w, " %-9s %10s", pr.Source, "-")
			}
		}
		fmt.Fprintln(w)
	}
	st := res.Stats
	fmt.Fprintf(w, "\n%d points, %d shapes, %d derivations, %d cache hits, %s total\n",
		st.Points, st.Shapes, st.DeriveCalls, st.CacheHits, st.Wall)
	if sampled {
		fmt.Fprintf(w, "sampled     %d simulated, %d predicted, max prediction error %.4f\n",
			st.SimulatedPoints, st.PredictedPoints, st.MaxPredError)
	}
	if baseline && st.SpeedUp.N > 0 {
		fmt.Fprintf(w, "speed-up    min %.2f  max %.2f  mean %.2f  geomean %.2f\n",
			st.SpeedUp.Min, st.SpeedUp.Max, st.SpeedUp.Mean, st.SpeedUp.Geomean)
		if st.EventRatio.N > 0 {
			fmt.Fprintf(w, "event ratio min %.2f  max %.2f  mean %.2f  geomean %.2f\n",
				st.EventRatio.Min, st.EventRatio.Max, st.EventRatio.Mean, st.EventRatio.Geomean)
		} else {
			fmt.Fprintln(w, "event ratio n/a (the engine ran no activation)")
		}
	}
	return nil
}

func writeCSV(w *os.File, res *sweep.Result, baseline, sampled bool) error {
	if len(res.Points) == 0 {
		return nil
	}
	cols := append([]string{}, res.Points[0].Point.Names...)
	cols = append(cols, "activations", "events", "final_ns", "graph_nodes", "wall_ns")
	if baseline {
		cols = append(cols, "baseline_activations", "baseline_wall_ns", "event_ratio", "speed_up")
	}
	if sampled {
		cols = append(cols, "source", "pred_bound", "pred_observed")
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	for _, pr := range res.Points {
		if pr.Err != nil {
			continue
		}
		row := make([]string, 0, len(cols))
		for _, v := range pr.Point.Values {
			row = append(row, strconv.FormatInt(v, 10))
		}
		row = append(row,
			strconv.FormatInt(pr.Run.Activations, 10),
			strconv.FormatInt(pr.Run.Events, 10),
			strconv.FormatInt(pr.Run.FinalTimeNs, 10),
			strconv.Itoa(pr.Run.GraphNodes),
			strconv.FormatInt(pr.Run.Wall.Nanoseconds(), 10))
		if baseline && pr.Baseline != nil {
			row = append(row,
				strconv.FormatInt(pr.Baseline.Activations, 10),
				strconv.FormatInt(pr.Baseline.Wall.Nanoseconds(), 10),
				fmt.Sprintf("%.4f", pr.EventRatio),
				fmt.Sprintf("%.4f", pr.SpeedUp))
		}
		if sampled {
			row = append(row, pr.Source,
				fmt.Sprintf("%.6f", pr.PredBound),
				fmt.Sprintf("%.6f", pr.PredObserved))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	return nil
}

type jsonPoint struct {
	Params       map[string]int64 `json:"params"`
	Activations  int64            `json:"activations"`
	Events       int64            `json:"events"`
	FinalTimeNs  int64            `json:"final_time_ns"`
	GraphNodes   int              `json:"graph_nodes"`
	WallNs       int64            `json:"wall_ns"`
	EventRatio   float64          `json:"event_ratio,omitempty"`
	SpeedUp      float64          `json:"speed_up,omitempty"`
	Source       string           `json:"source,omitempty"`
	PredBound    float64          `json:"pred_bound,omitempty"`
	PredObserved float64          `json:"pred_observed,omitempty"`
	Error        string           `json:"error,omitempty"`
}

func writeJSON(w *os.File, res *sweep.Result) error {
	out := struct {
		Points []jsonPoint `json:"points"`
		Stats  sweep.Stats `json:"stats"`
	}{Stats: res.Stats}
	for _, pr := range res.Points {
		jp := jsonPoint{Params: map[string]int64{}}
		for i, n := range pr.Point.Names {
			jp.Params[n] = pr.Point.Values[i]
		}
		if pr.Err != nil {
			jp.Error = pr.Err.Error()
		} else {
			jp.Activations = pr.Run.Activations
			jp.Events = pr.Run.Events
			jp.FinalTimeNs = pr.Run.FinalTimeNs
			jp.GraphNodes = pr.Run.GraphNodes
			jp.WallNs = pr.Run.Wall.Nanoseconds()
			jp.EventRatio = pr.EventRatio
			jp.SpeedUp = pr.SpeedUp
			jp.Source = pr.Source
			jp.PredBound = pr.PredBound
			jp.PredObserved = pr.PredObserved
		}
		out.Points = append(out.Points, jp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
