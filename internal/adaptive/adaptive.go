// Package adaptive is the temporal-abstraction engine: it decides
// *online*, while a model runs, which execution engine simulates each
// span of iterations.
//
// A run starts event-by-event on the discrete-event kernel (the detailed
// mode) and watches the evolution for a confirmed steady state: an
// unchanged parameter signature — every data-dependent execution duration
// and every source-schedule increment — confirmed by an online detector,
// either a fixed window of iterations (Options.Window) or, by default,
// a confidence-driven estimator that fires as early as the evidence
// allows (see detector.go). Once confirmed, the steady region is
// hot-switched to the
// equivalent (max,+) model: a temporal-dependency-graph evaluator is
// seeded with the live simulation state (the recorded instant history
// supplies the graph's initial conditions) and computes all further
// instants with zero kernel events. Whenever the parameter signature
// changes — a reconfiguration of the modelled workload that invalidates
// the steady assumption — the engine falls back to event-driven
// execution, seeding the resumed kernel from the computed history, and
// re-binds the graph through the structure-keyed derive cache on the next
// steady window.
//
// Both directions of the switch are exact, not approximate. The detailed
// engine resumes at an arbitrary iteration boundary because every
// dependency that crosses the boundary is a delayed arc of the derived
// temporal dependency graph (rotation gates and FIFO backpressure; all
// zero-delay arcs stay within one iteration), and each such arc is
// realized in the resumed kernel as an absolute time floor on the process
// statement owning the target instant — by (max,+) semantics, waiting
// until the historical term before engaging a transfer adds exactly that
// term to the transfer's readiness expression. The abstract engine
// resumes because the evaluator's bounded history ring is seeded from the
// same recorded instants. Integration tests therefore require the
// adaptive trace to be bit-exact against the pure reference executor on
// every scenario, steady or not; the steady-state detector is a policy
// that decides how many kernel events are saved, never what the instants
// are.
package adaptive

import (
	"context"
	"fmt"
	"time"

	"dyncomp/internal/baseline"
	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/tdg"
)

// DefaultWindow is the historical fixed-window width: the confirmation
// window (and detailed chunk length) of the original detector. Pass it
// as Options.Window to reproduce the pre-confidence behavior exactly;
// a zero Window now selects the confidence-driven detector.
const DefaultWindow = 8

// Mode identifies the engine executing a span of iterations.
type Mode int

// Execution modes.
const (
	// Detailed is event-by-event execution on the simulation kernel.
	Detailed Mode = iota
	// Abstract is dynamic computation over the temporal dependency graph.
	Abstract
)

func (m Mode) String() string {
	switch m {
	case Detailed:
		return "detailed"
	case Abstract:
		return "abstract"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures an adaptive run.
type Options struct {
	// Trace records evolution instants and resource activity,
	// bit-exact against the reference executor. Without it the engine
	// still records the instants it reads back (the history seeds every
	// switch), but not the resource activity.
	Trace *observe.Trace
	// Limit bounds simulated time; zero runs to completion. As in the
	// reference executor, exactly the instants up to the limit are
	// recorded; Result.Iterations counts the iterations recorded whole.
	Limit sim.Time
	// Window, when positive, selects the fixed-window detector: the
	// number of consecutive iterations with an identical parameter
	// signature required before switching to the abstract engine, which
	// is also the detailed chunk length between steady-state checks.
	// Zero selects the confidence-driven detector (see Confidence),
	// which fires as early as the evidence allows.
	Window int
	// Confidence is the confidence-driven detector's posterior
	// steadiness threshold in (0, 1), read when Window is zero. Zero
	// means DefaultConfidence. Higher thresholds demand more evidence
	// before switching; the detector is a policy either way — the
	// recorded evolution is bit-exact at any setting.
	Confidence float64
	// Derive sets the derivation options (arc reduction, pad nodes) for
	// every graph the run obtains through the cache.
	Derive derive.Options
	// Cache supplies a shared structure-keyed derivation cache (e.g. from
	// a design-space sweep); nil creates a private one. Every switch to
	// the abstract engine obtains its graph through the cache, so repeated
	// steady windows re-bind one template instead of re-deriving.
	Cache *derive.Cache
	// IterLimit, when positive, bounds the evolution to iterations
	// [0, IterLimit): every source stops after token IterLimit-1.
	IterLimit int
	// Ctx, when non-nil, is checked at every phase boundary: a cancelled
	// context aborts the run with its error. Nil never cancels.
	Ctx context.Context
	// Progress, when non-nil, is invoked at every phase boundary with the
	// number of completed iterations and the total.
	Progress func(done, total int)
}

// Phase is one maximal span of iterations executed in a single mode.
type Phase struct {
	Mode   Mode
	StartK int // first iteration of the span
	EndK   int // one past the last iteration
	// Events and Activations are the kernel work paid during the span
	// (zero for abstract phases — that is the point of the method).
	Events      int64
	Activations int64
	// Wall is the host time spent in the span.
	Wall time.Duration
}

// Result reports a completed adaptive run.
type Result struct {
	// Stats sums the kernel work of all detailed phases; abstract phases
	// contribute nothing. FinalTime covers the whole evolution, including
	// instants computed abstractly.
	Stats sim.Stats
	// Trace is Options.Trace (nil when none was supplied).
	Trace *observe.Trace
	// Iterations is the number of evolution iterations completed.
	Iterations int
	// GraphNodes is the derived graph size in the paper's counting.
	GraphNodes int
	// Switches counts detailed→abstract transitions; Fallbacks counts
	// abstract→detailed transitions forced by a parameter change.
	Switches  int
	Fallbacks int
	// DetailedIters and AbstractIters count iterations per mode.
	DetailedIters int
	AbstractIters int
	// Detector describes the steady-state detection policy that drove
	// the run ("fixed:8", "confidence:0.90").
	Detector string
	// Phases lists the mode spans in execution order.
	Phases []Phase
}

// Run simulates the architecture with the adaptive engine. The recorded
// evolution is bit-exact against the reference executor regardless of how
// the run is partitioned into detailed and abstract phases.
func Run(a *model.Architecture, opts Options) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	det := newDetector(opts.Window, opts.Confidence)
	cache := opts.Cache
	if cache == nil {
		cache = derive.NewCache()
	}
	dopts := opts.Derive
	dres, err := cache.Derive(a, dopts)
	if err != nil {
		return nil, err
	}
	n, err := iterations(a)
	if err != nil {
		return nil, err
	}
	if opts.IterLimit > 0 && opts.IterLimit < n {
		n = opts.IterLimit
	}
	rec := opts.Trace
	if rec == nil {
		rec = observe.NewInstantTrace(a.Name + "/adaptive")
	}
	execs, err := a.Execs()
	if err != nil {
		return nil, err
	}

	r := &runner{
		arch:  a,
		opts:  opts,
		det:   det,
		cache: cache,
		dopts: dopts,
		dres:  dres,
		rec:   rec,
		n:     n,
		execs: execs,
		limit: opts.Limit,
	}
	if r.limit <= 0 {
		r.limit = sim.Forever
	}
	if err := r.buildFloorPoints(); err != nil {
		return nil, err
	}

	res := &Result{Trace: opts.Trace, GraphNodes: dres.Graph.NodeCountWithDelays(), Detector: det.String()}
	// phaseDone runs at every phase boundary: report progress, honor
	// cancellation. The kernel itself is uninterruptible, so a cancelled
	// context aborts between phases, never inside one.
	phaseDone := func(k int) error {
		if opts.Progress != nil {
			opts.Progress(k, n)
		}
		if opts.Ctx != nil {
			return opts.Ctx.Err()
		}
		return nil
	}
	k := 0
	for k < n && !r.truncated {
		// Detailed: event-by-event chunks until the detector confirms a
		// steady state that still holds for the next iteration (the same
		// signature check the abstract engine performs before every
		// computed iteration). The chunk length between checks is the
		// detector's own estimate of the earliest possible confirmation.
		ph := Phase{Mode: Detailed, StartK: k}
		start := time.Now()
		before := r.total
		for k < n && !r.truncated {
			r.advanceDetector(k)
			k1 := k + r.det.nextCheck()
			if k1 > n {
				k1 = n
			}
			k, err = r.runChunk(k, k1)
			if err != nil {
				return nil, err
			}
			if r.switchable(k) {
				break
			}
		}
		ph.EndK = k
		ph.Wall = time.Since(start)
		ph.Events = r.total.Events() - before.Events()
		ph.Activations = r.total.Activations - before.Activations
		res.Phases = append(res.Phases, ph)
		res.DetailedIters += ph.EndK - ph.StartK
		if err := phaseDone(k); err != nil {
			return nil, err
		}
		if k >= n || r.truncated {
			break
		}

		// Abstract: compute instants over the (re-bound) graph until the
		// parameter signature deviates from the confirmed steady one.
		res.Switches++
		ph = Phase{Mode: Abstract, StartK: k}
		start = time.Now()
		k, err = r.runAbstract(k)
		if err != nil {
			return nil, err
		}
		ph.EndK = k
		ph.Wall = time.Since(start)
		res.Phases = append(res.Phases, ph)
		res.AbstractIters += ph.EndK - ph.StartK
		if err := phaseDone(k); err != nil {
			return nil, err
		}
		if k < n && !r.truncated {
			res.Fallbacks++
		}
	}

	res.Stats = r.total
	if r.endTime > sim.Time(res.Stats.FinalTime) {
		res.Stats.FinalTime = r.endTime
	}
	res.Iterations = k
	return res, nil
}

// iterations resolves the iteration count from the sources, which must
// agree on one token count (single-rate evolution).
func iterations(a *model.Architecture) (int, error) {
	if len(a.Sources) == 0 {
		return 0, fmt.Errorf("adaptive: architecture %q has no sources", a.Name)
	}
	n := a.Sources[0].Count
	for _, s := range a.Sources[1:] {
		if s.Count != n {
			return 0, fmt.Errorf("adaptive: sources %q and %q produce different token counts (%d vs %d)",
				a.Sources[0].Name, s.Name, n, s.Count)
		}
	}
	return n, nil
}

// runner is the state of one adaptive run.
type runner struct {
	arch  *model.Architecture
	opts  Options
	det   detector
	cache *derive.Cache
	dopts derive.Options
	dres  *derive.Result
	rec   *observe.Trace
	n     int

	execs    []*model.ExecInfo // controller-owned, for parameter signatures
	sigs     [][]maxplus.T     // memoized signatures by iteration
	sigIdx   int               // last signature index fed to the detector
	floorPts []floorPoint

	limit     sim.Time // Options.Limit, or sim.Forever when unbounded
	total     sim.Stats
	endTime   sim.Time // latest instant over all phases
	truncated bool
}

// sigAt returns the parameter signature of iteration k: every execution
// duration plus every source-schedule increment. Two iterations with
// equal signatures evolve under identical graph weights and input
// spacing — the paper's notion of unchanged model parameters.
func (r *runner) sigAt(k int) []maxplus.T {
	for len(r.sigs) <= k {
		r.sigs = append(r.sigs, nil)
	}
	if r.sigs[k] != nil {
		return r.sigs[k]
	}
	sig := make([]maxplus.T, 0, len(r.execs)+len(r.arch.Sources))
	for _, e := range r.execs {
		sig = append(sig, e.Duration(k))
	}
	for _, s := range r.arch.Sources {
		u := s.Schedule(k)
		if k > 0 {
			u -= s.Schedule(k - 1)
		}
		sig = append(sig, u)
	}
	r.sigs[k] = sig
	return sig
}

func sigsEqual(a, b []maxplus.T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// advanceDetector feeds the detector every signature transition up to
// and including (k-1, k), exactly once each: sigIdx tracks the last
// signature incorporated, so interleaved detailed chunks, steady-state
// checks and abstract fallbacks all observe one contiguous stream.
// Signatures are analytic (pure functions of the model), so the stream
// can run ahead of the simulated iterations — that final transition is
// the one-step lookahead keeping a switch from falling straight back.
func (r *runner) advanceDetector(k int) {
	for r.sigIdx < k {
		r.sigIdx++
		r.det.observe(sigsEqual(r.sigAt(r.sigIdx-1), r.sigAt(r.sigIdx)))
	}
}

// switchable reports whether the run may switch to the abstract engine
// at iteration k: the detector confirms steadiness over the transition
// stream ending at sig(k) — which includes the lookahead match of
// iteration k itself (otherwise the switch would fall straight back).
// With the fixed-window detector this is bit-identical to the original
// trailing-window check.
func (r *runner) switchable(k int) bool {
	if k < 1 || k >= r.n {
		return false
	}
	r.advanceDetector(k)
	return r.det.confirmed()
}

// hist returns the recorded instant of a graph node at iteration k, or ε
// when the node is unlabelled or the iteration not yet evolved.
func (r *runner) hist(id tdg.NodeID, k int) maxplus.T {
	label, ok := r.dres.Labels[id]
	if !ok {
		return maxplus.Epsilon
	}
	xs := r.rec.Instants(label)
	switch {
	case k < 0:
		return maxplus.Epsilon
	case k >= len(xs) && r.truncated:
		// Unrecorded past the limit: any later instant is a lower bound,
		// so the instants computed from it are exact up to the limit.
		return maxplus.T(r.limit) + 1
	case k >= len(xs):
		return maxplus.Epsilon
	}
	return xs[k]
}

// runChunk simulates iterations [k0, k1) event-by-event on a fresh
// kernel, seeded from the recorded history through statement floors, and
// returns the next iteration index: k1 normally, or — when the time
// limit cut the chunk short — the number of iterations the kernel
// actually completed for every instant label.
func (r *runner) runChunk(k0, k1 int) (int, error) {
	kern := sim.New()
	aopts := baseline.AttachOptions{
		Trace:      r.rec,
		IterOffset: k0,
		IterLimit:  k1,
	}
	if k0 > 0 {
		floors, srcFloors := r.floorsFor(k0)
		if len(floors) > 0 {
			aopts.Floor = func(f *model.Function, stmt, k int) sim.Time {
				return floors[floorKey{f: f, stmt: stmt, k: k}]
			}
		}
		if len(srcFloors) > 0 {
			aopts.SourceFloor = func(s *model.Source, k int) sim.Time {
				return srcFloors[srcFloorKey{s: s, k: k}]
			}
		}
	}
	if _, err := baseline.Attach(kern, r.arch, aopts); err != nil {
		return k0, err
	}
	if err := kern.Run(r.limit); err != nil {
		return k0, err
	}
	st := kern.Stats()
	if r.opts.Limit > 0 && st.FinalTime >= r.opts.Limit {
		r.truncated = true
	}
	if st.FinalTime > r.endTime {
		r.endTime = st.FinalTime
	}
	r.total = r.total.Add(st)
	if !r.truncated {
		return k1, nil
	}
	if k1 < r.n {
		// Iterations past the chunk may still hold instants the limit
		// reaches; the graph computes them.
		if _, err := r.runAbstract(k1); err != nil {
			return k0, err
		}
	}
	return r.completedIterations(k0, k1), nil
}

// completedIterations counts how many iterations the trace holds for
// every instant label — the evolution actually finished when a time
// limit stopped a chunk before its last iteration.
func (r *runner) completedIterations(k0, k1 int) int {
	done := k1
	for _, label := range r.dres.Labels {
		if n := len(r.rec.Instants(label)); n < done {
			done = n
		}
	}
	if done < k0 {
		done = k0
	}
	return done
}

// runAbstract computes iterations from k0 onward over the temporal
// dependency graph (obtained through the structure-keyed cache, so
// repeated steady windows re-bind one derivation) until the parameter
// signature deviates from the steady signature confirmed at the switch.
// It returns the first iteration not computed. Once an iteration crosses
// the time limit, the later iterations' instants the limit still reaches
// are computed too (the graph holds for any parameters); the run is then
// truncated and the count is that of iterations recorded whole.
func (r *runner) runAbstract(k0 int) (int, error) {
	dres, err := r.cache.Derive(r.arch, r.dopts)
	if err != nil {
		return k0, err
	}
	// The hot switch seeds the evaluator's ring directly from the
	// recorded live trace.
	ev := dres.Program().NewEvaluator()
	defer ev.Release()
	if err := ev.SeedHistory(k0, r.hist); err != nil {
		return k0, err
	}
	steady := r.sigAt(k0 - 1)
	us := make([]maxplus.T, len(r.arch.Sources))
	vals := make([]maxplus.T, dres.Graph.NodeCount())
	k := k0
	// Reconfiguration falls back to the detailed engine.
	for k < r.n && (r.truncated || sigsEqual(r.sigAt(k), steady)) {
		for i, s := range r.arch.Sources {
			us[i] = s.Schedule(k)
		}
		if _, err := ev.Step(us); err != nil {
			return k, err
		}
		ev.ValuesInto(vals)
		iterEnd, recorded := r.record(dres, vals, k)
		if !recorded {
			r.truncated = true
			break
		}
		r.endTime = max(r.endTime, min(iterEnd, r.limit))
		k++
		if iterEnd > r.limit {
			r.truncated = true
		}
	}
	if r.truncated {
		return r.completedIterations(k0, k), nil
	}
	return k, nil
}

// record reconstructs the observable evolution of iteration k from the
// computed instants — every labelled instant and every execution
// activity up to the time limit — exactly as the equivalent model does.
// It returns the latest instant of the iteration and whether any of its
// instants was recorded.
func (r *runner) record(dres *derive.Result, vals []maxplus.T, k int) (sim.Time, bool) {
	end := maxplus.Epsilon
	recorded := false
	for _, nd := range dres.Graph.Nodes() {
		label, ok := dres.Labels[nd.ID]
		if !ok {
			continue
		}
		v := vals[nd.ID]
		end = maxplus.Oplus(end, v)
		if v <= maxplus.T(r.limit) {
			r.rec.RecordInstant(label, v)
			recorded = true
		}
	}
	for _, pr := range dres.Probes {
		start := pr.Start(vals[pr.Base], k)
		if start == maxplus.Epsilon || start > maxplus.T(r.limit) {
			continue
		}
		load := pr.Exec.Load(k)
		fin := maxplus.Otimes(start, pr.Exec.Resource.DurationOf(load))
		r.rec.RecordActivity(observe.Activity{
			Resource: pr.Exec.Resource.Name,
			Label:    pr.Exec.Label,
			K:        k,
			Start:    start,
			End:      fin,
			Ops:      load.Ops,
		})
		end = maxplus.Oplus(end, fin)
	}
	if end == maxplus.Epsilon {
		return 0, recorded
	}
	return sim.Time(end), recorded
}
