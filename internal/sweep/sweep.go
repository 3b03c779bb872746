// Package sweep is a concurrent design-space exploration engine. The
// paper's value proposition is evaluating many candidate multi-core
// configurations fast; this package turns the single-run library into a
// batch evaluator: a parameter grid (the cartesian product of named
// integer axes) is expanded into points, a generator maps each point to
// an architecture model, and a worker pool evaluates every point with
// any executor registered in internal/engine, selected by name —
// "adaptive" (default), "equivalent", "reference", "hybrid" (with
// Options.Group), plus whatever future engines register.
//
// Derivation is cached by structural shape (derive.Cache): when points
// differ only in parameters — token counts, periods, seeds, schedules,
// costs, resource speeds — the temporal dependency graph is derived
// once and re-bound per point, so the symbolic execution cost is paid
// once per shape rather than once per point. The cache is injected into
// every engine run, so the hybrid and adaptive engines share it too.
//
// Every point is evaluated independently and deterministically: the
// per-point results (instants, stats) are identical regardless of the
// worker count or scheduling order. RunContext threads a context through
// the worker pool: a cancelled context stops dispatching points,
// fails the remaining ones with the context's error, and returns it
// alongside the partial result.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dyncomp/internal/derive"
	"dyncomp/internal/engine"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"

	// Register the built-in executors, so any consumer of the sweep
	// engine can select them by name.
	_ "dyncomp/internal/adaptive"
	_ "dyncomp/internal/baseline"
	_ "dyncomp/internal/core"
	_ "dyncomp/internal/hybrid"
)

// Axis is one dimension of the design-space grid.
type Axis struct {
	Name   string
	Values []int64
}

// Point is one configuration of the grid: an assignment of one value per
// axis. Index is the point's position in row-major grid order (the last
// axis varies fastest), which is also its position in Result.Points.
type Point struct {
	Index  int
	Names  []string // axis names, shared across all points of a grid
	Values []int64  // one value per axis
}

// Lookup returns the value of the named axis.
func (p Point) Lookup(name string) (int64, bool) {
	for i, n := range p.Names {
		if n == name {
			return p.Values[i], true
		}
	}
	return 0, false
}

// Get returns the value of the named axis, or def when the grid has no
// such axis.
func (p Point) Get(name string, def int64) int64 {
	if v, ok := p.Lookup(name); ok {
		return v
	}
	return def
}

func (p Point) String() string {
	s := ""
	for i, n := range p.Names {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%d", n, p.Values[i])
	}
	return s
}

// gridShape validates axes and returns the shared name slice and the
// grid's total point count.
func gridShape(axes []Axis) ([]string, int, error) {
	if len(axes) == 0 {
		return nil, 0, fmt.Errorf("sweep: no axes")
	}
	names := make([]string, len(axes))
	total := 1
	for i, ax := range axes {
		if ax.Name == "" {
			return nil, 0, fmt.Errorf("sweep: axis %d has no name", i)
		}
		if len(ax.Values) == 0 {
			return nil, 0, fmt.Errorf("sweep: axis %q has no values", ax.Name)
		}
		for _, prev := range names[:i] {
			if prev == ax.Name {
				return nil, 0, fmt.Errorf("sweep: duplicate axis %q", ax.Name)
			}
		}
		names[i] = ax.Name
		total *= len(ax.Values)
	}
	return names, total, nil
}

// pointAt synthesizes the grid point at row-major index i.
func pointAt(axes []Axis, names []string, i int) Point {
	vals := make([]int64, len(axes))
	rem := i
	for d := len(axes) - 1; d >= 0; d-- {
		n := len(axes[d].Values)
		vals[d] = axes[d].Values[rem%n]
		rem /= n
	}
	return Point{Index: i, Names: names, Values: vals}
}

// Grid expands axes into their cartesian product in row-major order: the
// last axis varies fastest.
func Grid(axes []Axis) ([]Point, error) {
	names, total, err := gridShape(axes)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, total)
	for i := range pts {
		pts[i] = pointAt(axes, names, i)
	}
	return pts, nil
}

// GridSelect expands only the given row-major grid indices, in the given
// order. Each point keeps its global grid index, so a subset evaluation
// (a distributed shard's chunk) reports results a coordinator can merge
// back into full-grid order. Out-of-range and duplicate indices are
// rejected: a chunk must never evaluate a point twice.
func GridSelect(axes []Axis, indices []int) ([]Point, error) {
	names, total, err := gridShape(axes)
	if err != nil {
		return nil, err
	}
	if len(indices) == 0 {
		return nil, fmt.Errorf("sweep: no indices selected")
	}
	seen := make(map[int]bool, len(indices))
	pts := make([]Point, len(indices))
	for k, idx := range indices {
		if idx < 0 || idx >= total {
			return nil, fmt.Errorf("sweep: index %d outside grid of %d points", idx, total)
		}
		if seen[idx] {
			return nil, fmt.Errorf("sweep: duplicate index %d", idx)
		}
		seen[idx] = true
		pts[k] = pointAt(axes, names, idx)
	}
	return pts, nil
}

// Generator maps a grid point to an architecture model. It must be
// deterministic and safe for concurrent calls with distinct points; the
// engine may call it more than once per point (e.g. to build a separate
// instance for the baseline run).
type Generator func(Point) (*model.Architecture, error)

// DefaultEngine evaluates the points when Options.Engine is empty. The
// adaptive engine is bit-exact against the reference executor at zero
// kernel events and batches lanes (Options.BatchWidth); a point's value
// is its instants and final time, not kernel event counts. Select
// "equivalent" to measure the paper's event savings (Options.Baseline
// event ratios).
const DefaultEngine = "adaptive"

// Point sources reported by sampled sweeps (PointResult.Source).
const (
	// SourceSimulated marks a point evaluated exactly by an engine.
	SourceSimulated = "simulated"
	// SourcePredicted marks a point filled in by the surrogate model.
	SourcePredicted = "predicted"
)

// SampleOptions configures surrogate-guided sweep sampling: instead of
// simulating every grid point, an active-sampling driver evaluates a
// seed subset exactly, fits an analytical surrogate over the parameter
// axes, keeps simulating the highest-uncertainty points until the
// cross-validated error drops below Tolerance, and *predicts* the rest.
// Predicted points are flagged per point (PointResult.Source,
// PredBound) and counted in Stats.PredictedPoints.
type SampleOptions struct {
	// Tolerance is the target maximum relative prediction error on the
	// gated metrics (end-to-end latency and cycle mean). Zero disables
	// sampling entirely: the sweep degenerates to the exhaustive run,
	// bit-exactly.
	Tolerance float64
	// Budget caps the number of points simulated exactly by the
	// sampling loop (0: no cap). When the budget runs out before the
	// tolerance is met, the remaining points are still predicted —
	// with whatever error bound the model honestly reports.
	Budget int
	// Verify re-simulates every predicted point exactly after the
	// sampling loop converges, replaces the predicted metrics with the
	// exact results (keeping Source == "predicted" and filling
	// PredObserved), and reports the maximum observed prediction error
	// in Stats.MaxPredError. The escape hatch costs the full grid but
	// measures the surrogate instead of trusting it.
	Verify bool
}

// Enabled reports whether sampling is requested.
func (s SampleOptions) Enabled() bool { return s.Tolerance > 0 }

// Options configures a sweep.
type Options struct {
	// Workers sets the worker-pool size; 0 means GOMAXPROCS. Timings
	// (PointStats.Wall) of concurrent runs perturb each other: use
	// Workers 1 when wall-clock speed-ups are the measurement.
	Workers int
	// Engine names the registered executor evaluating every point
	// (engine.Names() lists them); empty selects DefaultEngine.
	Engine string
	// Group names the functions the hybrid engine abstracts on every
	// point. Required by (and only read by) the hybrid engine.
	Group []string
	// GroupFor, when non-nil, overrides Group per point — for grids
	// whose axes change the architecture's structure (and with it the
	// group), e.g. sweeping the fork-join worker count.
	GroupFor func(Point) []string
	// Baseline also runs the reference executor on every point (from a
	// fresh Generator call) and fills PointResult.Baseline, EventRatio
	// and SpeedUp. Meaningful with any engine but "reference" itself.
	Baseline bool
	// Record keeps per-point evolution traces.
	Record bool
	// Limit bounds simulated time per point; 0 runs to completion.
	Limit sim.Time
	// Derive sets the derivation options for every point.
	Derive derive.Options
	// DeriveFor, when non-nil, overrides Derive per point (e.g. the
	// Fig. 5 sweep pads the graph differently at each point).
	DeriveFor func(Point) derive.Options
	// Cache supplies a shared derivation cache; nil creates a fresh one
	// for the sweep. Sharing a cache across sweeps carries its hit/miss
	// statistics over.
	Cache *derive.Cache
	// Progress, when non-nil, receives (completed, total) after every
	// point finishes — successful or failed. Deliveries are serialized
	// and strictly monotonic: the counter advance and the callback run
	// under one lock, so a later call always carries a larger count. In
	// a per-point sweep every count 1..total is delivered exactly once,
	// also under cancellation; a batched sweep (BatchWidth > 0)
	// coalesces the notifications — one per finished chunk, advancing
	// by the chunk size — but still reaches total, also under
	// cancellation. Because the lock spans the callback, a blocking
	// consumer stalls every worker: forward, never block.
	Progress func(done, total int)
	// Sample enables surrogate-guided sampling (Sample.Tolerance > 0):
	// only a model-chosen subset of the grid is simulated exactly and
	// the rest is predicted by an analytical surrogate. Requires the
	// sampling driver to be linked (import _ "dyncomp/internal/
	// surrogate"); only Run/RunContext support it — a distributed
	// chunk evaluation (RunIndices) rejects it, because the surrogate
	// needs the whole grid to choose its samples.
	Sample SampleOptions
	// BatchWidth, when positive, groups grid points sharing one
	// structural shape (derive.ShapeKey, same per-point derive options
	// and group) into cohorts and evaluates each cohort in chunks of up
	// to BatchWidth lanes through the engine's batched path
	// (engine.BatchRunner) — one compiled structure, one batched graph
	// evaluation per iteration for the whole chunk. Points keep their
	// bit-exact per-point results; only the evaluation strategy
	// changes. Engines without the batch capability (every one but
	// adaptive) fall back to the per-point path, as does any chunk
	// whose batched run fails wholesale. 0 disables batching.
	BatchWidth int
}

// PointStats reports one completed simulation of one point.
type PointStats struct {
	Activations int64         // kernel context switches
	Events      int64         // kernel event-queue operations
	FinalTimeNs int64         // simulated time reached
	Iterations  int           // evolution iterations computed
	GraphNodes  int           // graph size in the paper's counting (engines that derive one)
	Wall        time.Duration // host wall-clock time of the run
}

// PointResult is the evaluation of one grid point.
type PointResult struct {
	Point Point
	// Run is the selected engine's result (DefaultEngine unless
	// Options.Engine says otherwise).
	Run PointStats
	// Trace is the recorded evolution when Options.Record is set.
	Trace *observe.Trace
	// Baseline pairing (Options.Baseline): the reference executor's
	// result, its trace, and the paper's two headline ratios.
	Baseline      *PointStats
	BaselineTrace *observe.Trace
	EventRatio    float64 // baseline activations / engine activations; 0 (undefined) when the engine ran none
	SpeedUp       float64 // baseline wall / engine wall
	// Source reports how a sampled sweep obtained this point:
	// SourceSimulated or SourcePredicted. Empty in exhaustive sweeps.
	Source string
	// PredBound is the surrogate's relative error bound on this
	// predicted point's gated metrics (predicted points only).
	PredBound float64
	// PredObserved is the observed relative prediction error against
	// the exact re-simulation (predicted points under Sample.Verify).
	PredObserved float64
	// Err reports a failed point; the other fields are zero.
	Err error
}

// Aggregate summarizes one metric across the grid. The JSON field
// names are what the dyncomp-sweep CLI's -format json output emits,
// matching the snake_case convention of docs/SERVING.md (whose wire
// structs are deliberately separate).
type Aggregate struct {
	N       int     `json:"n"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Geomean float64 `json:"geomean"`
}

// Stats summarizes a completed sweep. The JSON field names are what
// the dyncomp-sweep CLI's -format json output emits, matching the
// snake_case convention of docs/SERVING.md.
type Stats struct {
	Points      int           `json:"points"`       // grid size
	Failed      int           `json:"failed"`       // points with Err set
	Shapes      int           `json:"shapes"`       // distinct structural shapes in the cache
	DeriveCalls int64         `json:"derive_calls"` // cache misses == derivations performed
	CacheHits   int64         `json:"cache_hits"`   // points served by rebinding
	Wall        time.Duration `json:"wall_ns"`      // wall-clock time of the whole sweep
	// Batched-evaluation accounting (zero in per-point sweeps):
	// Batches counts the batched engine invocations, BatchedPoints the
	// points they evaluated, and BatchOccupancy the mean lane
	// utilization — BatchedPoints over Batches × BatchWidth capacity.
	Batches        int     `json:"batches"`
	BatchedPoints  int     `json:"batched_points"`
	BatchOccupancy float64 `json:"batch_occupancy"`
	// Sampled-sweep accounting (zero in exhaustive sweeps):
	// SimulatedPoints counts points evaluated exactly by the sampling
	// loop, PredictedPoints the points filled in by the surrogate, and
	// MaxPredError the maximum relative prediction error — observed
	// (against exact re-simulation) under Sample.Verify, the model's
	// own bound otherwise.
	SimulatedPoints int     `json:"simulated_points,omitempty"`
	PredictedPoints int     `json:"predicted_points,omitempty"`
	MaxPredError    float64 `json:"max_pred_error,omitempty"`
	// SpeedUp and EventRatio aggregate the per-point ratios when
	// Options.Baseline was set. EventRatio leaves out the points whose
	// ratio is undefined (the engine ran no activation), so its N
	// counts only defined ratios.
	SpeedUp    Aggregate `json:"speed_up"`
	EventRatio Aggregate `json:"event_ratio"`
}

// Result is a completed sweep: one entry per grid point, in grid order,
// plus aggregate statistics.
type Result struct {
	Points []PointResult
	Stats  Stats
}

// Sampler is the surrogate-guided sweep driver: it owns the whole grid,
// simulates a subset of it exactly (through RunIndicesContext with
// Sample cleared) and predicts the rest. internal/surrogate registers
// one in init(); the indirection keeps this package free of a
// dependency on its own driver.
type Sampler func(ctx context.Context, axes []Axis, gen Generator, opts Options) (*Result, error)

var sampler Sampler

// RegisterSampler installs the surrogate sampling driver, following the
// registry idiom of internal/engine: importing the driver package makes
// Options.Sample work.
func RegisterSampler(fn Sampler) { sampler = fn }

// Run expands the grid, shards it across the worker pool and evaluates
// every point. Per-point failures are reported in PointResult.Err (and
// counted in Stats.Failed); Run itself fails only on unusable input. It
// is RunContext with a background context.
func Run(axes []Axis, gen Generator, opts Options) (*Result, error) {
	return RunContext(context.Background(), axes, gen, opts)
}

// RunContext is Run with cancellation threaded through the worker pool:
// once ctx is cancelled no further point is dispatched, every remaining
// point fails with the context's error, and RunContext returns ctx.Err()
// alongside the partial result (completed points keep their stats and
// the aggregate statistics cover them). In-flight points stop at their
// engine's cancellation granularity.
func RunContext(ctx context.Context, axes []Axis, gen Generator, opts Options) (*Result, error) {
	if opts.Sample.Enabled() {
		if sampler == nil {
			return nil, fmt.Errorf(`sweep: sampling requested but no driver linked (import _ "dyncomp/internal/surrogate")`)
		}
		if ctx == nil {
			ctx = context.Background()
		}
		return sampler(ctx, axes, gen, opts)
	}
	pts, err := Grid(axes)
	if err != nil {
		return nil, err
	}
	return runPoints(ctx, pts, nil, gen, opts)
}

// RunIndices evaluates only the given row-major grid indices — one
// shard's chunk of a distributed sweep. Results come back in indices
// order with each point's global grid Index preserved, and Progress
// counts against len(indices). Because every point is evaluated
// independently and batched cohorts are cut in the order given, a
// coordinator that cuts its chunks with Plan reproduces the
// single-process sweep bit for bit, batch counts included. It is
// RunIndicesContext with a background context.
func RunIndices(axes []Axis, indices []int, gen Generator, opts Options) (*Result, error) {
	return RunIndicesContext(context.Background(), axes, indices, gen, opts)
}

// RunIndicesContext is RunIndices with cancellation, under the same
// contract as RunContext.
func RunIndicesContext(ctx context.Context, axes []Axis, indices []int, gen Generator, opts Options) (*Result, error) {
	if opts.Sample.Enabled() {
		// The surrogate chooses which indices to simulate from the whole
		// grid; a pre-selected chunk contradicts that by construction.
		return nil, fmt.Errorf("sweep: sampling (Options.Sample) is not supported on index subsets")
	}
	pts, err := GridSelect(axes, indices)
	if err != nil {
		return nil, err
	}
	return runPoints(ctx, pts, nil, gen, opts)
}

// RunPlannedContext evaluates the points of one chunk Plan cut — pts,
// in the chunk's order, with archs[i] the architecture the plan
// generated for pts[i] — as RunIndicesContext evaluates the chunk's
// indices, batch counts included, but without generating or
// shape-keying the points again: the chunk holds one cohort, so its
// batches are its points taken opts.BatchWidth at a time. An engine
// without the batched path, or a zero BatchWidth, evaluates per point,
// generating each one as RunIndicesContext does.
func RunPlannedContext(ctx context.Context, pts []Point, archs []*model.Architecture, gen Generator, opts Options) (*Result, error) {
	if opts.Sample.Enabled() {
		return nil, fmt.Errorf("sweep: sampling (Options.Sample) is not supported on index subsets")
	}
	if len(pts) == 0 || len(archs) != len(pts) {
		return nil, fmt.Errorf("sweep: %d architectures planned for %d points", len(archs), len(pts))
	}
	return runPoints(ctx, pts, archs, gen, opts)
}

// runPoints is the shared evaluation core behind RunContext,
// RunIndicesContext and RunPlannedContext: resolve the engine, cut the
// points into chunks and evaluate the chunks from one worker pool. A
// batched sweep's chunks are Plan's shape-cohort chunks, each one
// batched engine run — or, when planned holds the architectures of one
// planned cohort, its points BatchWidth at a time; a per-point sweep's
// are single points.
func runPoints(ctx context.Context, pts []Point, planned []*model.Architecture, gen Generator, opts Options) (*Result, error) {
	if gen == nil {
		return nil, fmt.Errorf("sweep: nil generator")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	name := opts.Engine
	if name == "" {
		name = DefaultEngine
	}
	eng, err := engine.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	var refEng engine.Engine
	if opts.Baseline {
		if refEng, err = engine.Lookup("reference"); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(pts))
	cache := opts.Cache
	if cache == nil {
		cache = derive.NewCache()
	}

	start := time.Now()
	// report advances the coalesced progress counter by n finished
	// points: one per chunk, so a per-point sweep advances by one and a
	// batched one by whole chunks. The counter and the callback are
	// serialized under one mutex: with an atomic counter alone, two
	// workers finishing interleaved chunks could deliver their counts
	// out of order (a later call carrying a smaller count), so the lock
	// is what makes the delivered sequence strictly increasing.
	var (
		progressMu sync.Mutex
		completed  int
	)
	report := func(n int) {
		if n <= 0 {
			return
		}
		progressMu.Lock()
		completed += n
		if opts.Progress != nil {
			opts.Progress(completed, len(pts))
		}
		progressMu.Unlock()
	}

	var (
		chunks             []Chunk
		results            []PointResult
		eval               func(chunk []int)
		batches, batchedPt atomic.Int64
	)
	if br, ok := eng.(engine.BatchRunner); ok && opts.BatchWidth > 0 {
		archs := planned
		if archs == nil {
			// Points that fail planning (generation, shape derivation or
			// a pre-existing cancellation) are finished; report them as
			// one coalesced stride.
			archs = make([]*model.Architecture, len(pts))
			var failed []bool
			chunks, results, failed = plan(ctx, pts, gen, opts, workers, opts.BatchWidth, archs)
			nfailed := 0
			for _, f := range failed {
				if f {
					nfailed++
				}
			}
			report(nfailed)
		} else {
			results = make([]PointResult, len(pts))
			idx := make([]int, len(pts))
			for i := range pts {
				results[i].Point = pts[i]
				idx[i] = i
			}
			for m := idx; len(m) > 0; {
				n := min(opts.BatchWidth, len(m))
				chunks = append(chunks, Chunk{Indices: m[:n:n]})
				m = m[n:]
			}
		}
		eval = func(chunk []int) {
			evalChunk(ctx, chunk, pts, archs, gen, br, refEng, opts, cache, results, &batches, &batchedPt)
		}
	} else {
		results = make([]PointResult, len(pts))
		chunks = make([]Chunk, len(pts))
		idx := make([]int, len(pts))
		for i := range pts {
			idx[i] = i
			chunks[i] = Chunk{Indices: idx[i : i+1 : i+1]}
		}
		eval = func(chunk []int) {
			i := chunk[0]
			results[i] = evalPoint(ctx, pts[i], gen, eng, refEng, opts, cache)
		}
	}

	// The chunk pool. A cancelled context stops dispatching; the
	// undispatched tail is only touched here, never by a worker, and
	// still counts toward progress, so consumers see done == total even
	// on cancel.
	fail := func(chunk []int, err error) {
		for _, i := range chunk {
			results[i] = PointResult{Point: pts[i], Err: err}
		}
		report(len(chunk))
	}
	jobs := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(chunks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range jobs {
				// A dispatched chunk may still see the cancellation
				// before its evaluation started.
				if err := ctx.Err(); err != nil {
					fail(chunk, err)
					continue
				}
				eval(chunk)
				report(len(chunk))
			}
		}()
	}
dispatch:
	for ci, c := range chunks {
		select {
		case <-ctx.Done():
			for _, c := range chunks[ci:] {
				fail(c.Indices, ctx.Err())
			}
			break dispatch
		case jobs <- c.Indices:
		}
	}
	close(jobs)
	wg.Wait()

	res := &Result{Points: results}
	res.Stats = Summarize(results, cache, time.Since(start))
	res.Stats.Batches = int(batches.Load())
	res.Stats.BatchedPoints = int(batchedPt.Load())
	if res.Stats.Batches > 0 {
		res.Stats.BatchOccupancy = float64(res.Stats.BatchedPoints) / float64(res.Stats.Batches*opts.BatchWidth)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// evalPoint evaluates one grid point: generate the architecture, run the
// selected engine on it (with the sweep's shared derive cache injected),
// and optionally pair it with a reference-executor baseline. Panics —
// model builders and engines use them for invalid configurations —
// are confined to the point: one bad configuration must not kill a
// thousand-point sweep.
func evalPoint(ctx context.Context, p Point, gen Generator, eng, refEng engine.Engine, opts Options, cache *derive.Cache) (pr PointResult) {
	defer func() {
		if r := recover(); r != nil {
			pr = PointResult{
				Point: p,
				Err:   fmt.Errorf("sweep: point %d (%s): panic: %v", p.Index, p, r),
			}
		}
	}()
	pr = PointResult{Point: p}
	a, err := generate(p, gen)
	if err != nil {
		pr.Err = err
		return pr
	}
	dopts, group := pointOptions(p, opts)
	r, err := eng.Run(ctx, a, engine.Options{
		Record:        opts.Record,
		LimitNs:       int64(opts.Limit),
		AbstractGroup: group,
		Derive:        dopts,
		Cache:         cache,
	})
	if err != nil {
		pr.Err = fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, err)
		return pr
	}
	pr.Run = pointStats(r)
	pr.Trace = r.Trace

	if opts.Baseline {
		addBaseline(ctx, p, a, refEng, opts, &pr)
	}
	return pr
}

// generate builds one point's architecture, wrapping a failure in the
// point's identity.
func generate(p Point, gen Generator) (*model.Architecture, error) {
	a, err := gen(p)
	if err != nil {
		return nil, fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, err)
	}
	if a == nil {
		return nil, fmt.Errorf("sweep: point %d (%s): generator returned no architecture", p.Index, p)
	}
	return a, nil
}

// pointOptions resolves one point's derivation options and hybrid
// group: the per-point overrides when set, the sweep-wide values
// otherwise.
func pointOptions(p Point, opts Options) (derive.Options, []string) {
	dopts, group := opts.Derive, opts.Group
	if opts.DeriveFor != nil {
		dopts = opts.DeriveFor(p)
	}
	if opts.GroupFor != nil {
		group = opts.GroupFor(p)
	}
	return dopts, group
}

// addBaseline pairs an evaluated point with a reference-executor run and
// fills the paper's two headline ratios. Both the per-point and the
// batched path use it — baselines always run point-at-a-time (the
// reference executor has no batched form). It runs the point's own
// architecture: engines leave the architecture they run as they found
// it.
func addBaseline(ctx context.Context, p Point, a *model.Architecture, refEng engine.Engine, opts Options, pr *PointResult) {
	br, err := refEng.Run(ctx, a, engine.Options{
		Record:  opts.Record,
		LimitNs: int64(opts.Limit),
	})
	if err != nil {
		pr.Err = fmt.Errorf("sweep: point %d (%s): baseline: %w", p.Index, p, err)
		return
	}
	bs := pointStats(br)
	pr.Baseline = &bs
	pr.BaselineTrace = br.Trace
	if pr.Run.Activations > 0 {
		pr.EventRatio = float64(bs.Activations) / float64(pr.Run.Activations)
	}
	if pr.Run.Wall > 0 {
		pr.SpeedUp = bs.Wall.Seconds() / pr.Run.Wall.Seconds()
	}
}

// pointStats converts a uniform engine result into per-point statistics.
func pointStats(r *engine.Result) PointStats {
	return PointStats{
		Activations: r.Activations,
		Events:      r.Events,
		FinalTimeNs: r.FinalTimeNs,
		Iterations:  r.Iterations,
		GraphNodes:  r.GraphNodes,
		Wall:        time.Duration(r.WallNs),
	}
}

// Summarize computes the aggregate statistics over evaluated points.
// Exported for drivers that assemble a Result from several partial runs
// (the surrogate sampler merges its simulation rounds and predictions
// into one grid-ordered result) — reusing it keeps their aggregate
// float math bit-identical to an exhaustive sweep over the same values.
func Summarize(results []PointResult, cache *derive.Cache, wall time.Duration) Stats {
	st := Stats{Points: len(results), Wall: wall, Shapes: cache.Shapes()}
	st.CacheHits, st.DeriveCalls = cache.Stats()
	var speedups, ratios []float64
	for i := range results {
		pr := &results[i]
		if pr.Err != nil {
			st.Failed++
			continue
		}
		if pr.Baseline != nil {
			speedups = append(speedups, pr.SpeedUp)
			if pr.Run.Activations > 0 {
				ratios = append(ratios, pr.EventRatio)
			}
		}
	}
	st.SpeedUp = AggregateOf(speedups)
	st.EventRatio = AggregateOf(ratios)
	return st
}

// AggregateOf summarizes one metric across a value sequence. Exported so
// layers that merge partial sweeps (a distributed coordinator stitching
// shard results back together) reproduce the sweep's exact float math —
// the same values in the same order aggregate bit-identically.
func AggregateOf(xs []float64) Aggregate {
	if len(xs) == 0 {
		return Aggregate{}
	}
	a := Aggregate{N: len(xs), Min: xs[0], Max: xs[0]}
	sum, logSum := 0.0, 0.0
	geomean := true
	for _, x := range xs {
		if x < a.Min {
			a.Min = x
		}
		if x > a.Max {
			a.Max = x
		}
		sum += x
		if x > 0 {
			logSum += math.Log(x)
		} else {
			geomean = false
		}
	}
	a.Mean = sum / float64(len(xs))
	if geomean {
		a.Geomean = math.Exp(logSum / float64(len(xs)))
	}
	return a
}
