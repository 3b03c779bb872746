// Package hybrid implements partial abstraction — the paper's general
// formulation of the method: "the proposed method allows some of the
// architecture processes to be combined into a single equivalent
// executable model as seen by the simulator". A chosen group of functions
// is replaced by an equivalent model (Reception / ComputeInstant /
// Emission over the group's temporal dependency graph) while the rest of
// the architecture keeps running event-by-event; the two halves meet at
// the group's boundary channels. The whole architecture is the largest
// group: RunDerived runs it over the architecture's own derivation, and
// that is the equivalent model (core.Model.Run, the "equivalent"
// engine). The package holds the one boundary engine of the repository.
//
// Exactness across the boundary rests on one finality rule. An output
// read by an environment sink is final when computed: a sink never
// blocks, so its transfer happens at y(k). An output read by a
// simulated function is not: y(k) is only the earliest possible
// transfer, a slow reader can make the true one later, and instants
// that reference it (the writer's rotation gate, or what the writer
// does after the write) wait until the emission confirms the observed
// transfer. Every other instant is computed as soon as what it
// references is final, counted per node and across iterations, so a
// group that pipelines several iterations between its boundary input
// and output gates its receptions on time. The evaluation is no
// simulation process: it runs in zero simulation time inside the
// boundary process whose arrival or confirmed emission made more
// instants final, and it wakes only a boundary process whose action
// became computable, once, at that action's instant. Because an
// instant is never earlier than what it waits for, the waits never
// delay an emission or a reception. A run the evaluation cannot keep
// exact fails with ErrPipelined.
//
// Scope: the group must be closed under resources (a resource's
// rotation is either fully abstracted or fully simulated), and at most
// one of its boundary output channels may be read by a simulated
// function; outputs read by sinks are unlimited. Violations are
// reported as errors.
package hybrid

import (
	"fmt"

	"dyncomp/internal/baseline"
	"dyncomp/internal/chanrt"
	"dyncomp/internal/derive"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// Options configures a hybrid run.
type Options struct {
	// Group names the functions to abstract into the equivalent model.
	Group []string
	// Trace records evolution instants and resource activity of both the
	// simulated and the abstracted parts, comparable bit-exact with a full
	// reference run.
	Trace *observe.Trace
	// Limit bounds simulation time; zero runs to completion.
	Limit sim.Time
	// IterLimit, when positive, bounds the evolution to iterations
	// [0, IterLimit): every source stops after token IterLimit-1.
	IterLimit int
	// Derive sets the derivation options (arc reduction, pad nodes) for
	// the group's graph.
	Derive derive.Options
	// Cache supplies a shared structure-keyed derivation cache for the
	// group's graph (e.g. from a design-space sweep); nil derives
	// privately.
	Cache *derive.Cache
}

// Result reports a completed hybrid run.
type Result struct {
	Stats      sim.Stats
	Trace      *observe.Trace
	Iterations int
	GraphNodes int // abstracted group's graph size (paper counting)
}

// Run simulates the architecture with the named group abstracted. A
// group of every function runs as RunDerived on the architecture's own
// derivation.
func Run(a *model.Architecture, opts Options) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	group, err := resolveGroup(a, opts.Group)
	if err != nil {
		return nil, err
	}
	iters, err := Iterations(a)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	if len(group) == len(a.Functions) {
		// The whole architecture is its own group: run the equivalent
		// model on the architecture's own derivation.
		dres, err := opts.Cache.Derive(a, opts.Derive)
		if err != nil {
			return nil, err
		}
		return RunDerived(dres, opts)
	}
	if opts.IterLimit > 0 && opts.IterLimit < iters {
		iters = opts.IterLimit
	}
	sub, err := buildSub(a, group, iters)
	if err != nil {
		return nil, err
	}
	dres, err := opts.Cache.Derive(sub.arch, opts.Derive)
	if err != nil {
		return nil, err
	}
	if err := checkBoundary(dres, sub.outOrig); err != nil {
		return nil, err
	}
	return simulate(a, dres, boundary{
		in:       sub.inOrig,
		out:      sub.outOrig,
		group:    func(f *model.Function) bool { return group[f] },
		internal: func(ch *model.Channel) bool { return sub.internal[ch] },
	}, opts, iters)
}

// RunDerived simulates the equivalent model of the whole architecture
// dres was derived from: every function abstracted, the sources and
// sinks simulated. Of opts only Trace, Limit and IterLimit apply.
func RunDerived(dres *derive.Result, opts Options) (*Result, error) {
	iters, err := Iterations(dres.Arch)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	if opts.IterLimit > 0 && opts.IterLimit < iters {
		iters = opts.IterLimit
	}
	chs := make([]*model.Channel, 0, len(dres.Inputs)+len(dres.Outputs))
	for i := range dres.Inputs {
		chs = append(chs, dres.Inputs[i].Channel)
	}
	for _, ob := range dres.Outputs {
		chs = append(chs, ob.Channel)
	}
	return simulate(dres.Arch, dres, boundary{
		in:       chs[:len(dres.Inputs)],
		out:      chs[len(dres.Inputs):],
		group:    func(*model.Function) bool { return true },
		internal: func(*model.Channel) bool { return true },
	}, opts, iters)
}

// boundary places an abstracted group in its architecture.
type boundary struct {
	// in and out are the architecture's channels of the derivation's
	// input and output bindings, in order.
	in, out []*model.Channel
	// group reports the abstracted functions, internal the channels
	// both of whose ends are abstracted (boundary channels aside).
	group    func(*model.Function) bool
	internal func(*model.Channel) bool
}

// simulate runs a with the group b abstracted into dres, the group's
// derivation, over iters iterations.
func simulate(a *model.Architecture, dres *derive.Result, b boundary, opts Options, iters int) (*Result, error) {
	limit := opts.Limit
	if limit <= 0 {
		limit = sim.Forever
	}
	kern := sim.New()

	// Boundary channels get shared runtimes that record the real transfer
	// instants; internal channels of the group exist only as computed
	// instants.
	chans := make(map[*model.Channel]chanrt.RT, len(b.in)+len(b.out))
	skip := make([]string, 0, 2*(len(b.in)+len(b.out)))
	for _, chs := range [2][]*model.Channel{b.in, b.out} {
		for _, ch := range chs {
			chans[ch] = chanrt.New(kern, ch, opts.Trace)
			skip = append(skip, chanrt.Labels(ch)...)
		}
	}
	if err := baseline.Attach(kern, a, baseline.AttachOptions{
		Trace:       opts.Trace,
		Skip:        b.group,
		SkipChannel: b.internal,
		Chans:       chans,
		IterLimit:   opts.IterLimit,
	}); err != nil {
		return nil, err
	}

	eng := engineFor(dres, b.out, kern, opts.Trace, iters, limit, skip)
	defer eng.release()
	eng.build(a, b.in, b.out, chans)
	if err := kern.Run(limit); err != nil {
		return nil, err
	}
	stats := kern.Stats()
	stats.FinalTime = eng.finish()
	return &Result{
		Stats:      stats,
		Trace:      opts.Trace,
		Iterations: eng.complete,
		GraphNodes: dres.Graph.NodeCountWithDelays(),
	}, nil
}

func resolveGroup(a *model.Architecture, names []string) (map[*model.Function]bool, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("hybrid: empty group")
	}
	byName := map[string]*model.Function{}
	for _, f := range a.Functions {
		byName[f.Name] = f
	}
	group := map[*model.Function]bool{}
	for _, n := range names {
		f, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("hybrid: unknown function %q", n)
		}
		group[f] = true
	}
	// Resource closure: rotations must not straddle the boundary.
	for _, r := range a.Resources {
		in, out := 0, 0
		for _, f := range r.Rotation {
			if group[f] {
				in++
			} else {
				out++
			}
		}
		if in > 0 && out > 0 {
			return nil, fmt.Errorf("hybrid: resource %q is shared between the group and the rest; abstract whole resources", r.Name)
		}
	}
	return group, nil
}

// Iterations returns the number of iterations a's sources evolve over:
// their token count, which must be the same for every source.
func Iterations(a *model.Architecture) (int, error) {
	if len(a.Sources) == 0 {
		return 0, fmt.Errorf("architecture %q has no sources", a.Name)
	}
	n := a.Sources[0].Count
	for _, s := range a.Sources[1:] {
		if s.Count != n {
			return 0, fmt.Errorf("sources %q and %q produce different token counts (%d vs %d)",
				a.Sources[0].Name, s.Name, n, s.Count)
		}
	}
	return n, nil
}

// checkBoundary enforces the supported abstraction boundary: at least
// one input, and at most one output channel (out, in the derivation's
// order) read by a simulated function.
func checkBoundary(dres *derive.Result, out []*model.Channel) error {
	if len(dres.Inputs) == 0 {
		return fmt.Errorf("hybrid: group has no boundary inputs")
	}
	simulated := 0
	for _, ch := range out {
		if ch.Sink == nil {
			simulated++
		}
	}
	if simulated > 1 {
		return fmt.Errorf("hybrid: group has %d boundary output channels read by simulated functions; at most 1 is supported", simulated)
	}
	return nil
}
