// Package hybrid implements partial abstraction — the paper's general
// formulation of the method: "the proposed method allows some of the
// architecture processes to be combined into a single equivalent
// executable model as seen by the simulator". A chosen group of functions
// is replaced by an equivalent model (Reception / ComputeInstant /
// Emission over the group's temporal dependency graph) while the rest of
// the architecture keeps running event-by-event; the two halves meet at
// the group's boundary channels.
//
// Exactness across the boundary needs one care the whole-architecture
// case does not: the group's emission instant y(k) is only the earliest
// possible boundary transfer — a slow external reader can make the true
// transfer later, and internal instants of later iterations reference it
// (the writer's rotation gate). The engine therefore confirms each output
// transfer as it happens, corrects the stored instant, and defers
// ComputeInstant(k) until iteration k-1 is confirmed. Because the output
// writer's turn k starts no earlier than the confirmed transfer k-1, the
// deferral never delays an emission, and every computed instant is final
// when produced.
//
// Scope: the group must be closed under resources (a resource's rotation
// is either fully abstracted or fully simulated), must emit through
// exactly one boundary output channel, and the boundary write must be its
// writer's final statement. Violations are reported as errors.
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

// Run simulates the architecture with the named group abstracted.
func Run(a *model.Architecture, opts Options) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	group, err := resolveGroup(a, opts.Group)
	if err != nil {
		return nil, err
	}
	iters, err := iterationCount(a)
	if err != nil {
		return nil, err
	}
	if opts.IterLimit > 0 && opts.IterLimit < iters {
		iters = opts.IterLimit
	}
	sub, err := buildSub(a, group, iters)
	if err != nil {
		return nil, err
	}
	var dres *derive.Result
	if opts.Cache != nil {
		dres, err = opts.Cache.Derive(sub.arch, opts.Derive)
	} else {
		dres, err = derive.Derive(sub.arch, opts.Derive)
	}
	if err != nil {
		return nil, err
	}
	if err := checkBoundary(dres); err != nil {
		return nil, err
	}

	limit := opts.Limit
	if limit <= 0 {
		limit = sim.Forever
	}
	kern := sim.New()

	// Boundary channels get shared runtimes that record the real transfer
	// instants; internal channels of the group exist only as computed
	// instants.
	boundary := map[*model.Channel]chanrt.RT{}
	for _, ch := range sub.inOrig {
		boundary[ch] = chanrt.New(kern, ch, opts.Trace)
	}
	outOrig := sub.outOrig[0]
	boundary[outOrig] = chanrt.New(kern, outOrig, opts.Trace)

	inGroup := func(f *model.Function) bool { return group[f] }
	internal := func(ch *model.Channel) bool { return sub.internal[ch] }
	if _, err := baseline.Attach(kern, a, baseline.AttachOptions{
		Trace:       opts.Trace,
		Skip:        inGroup,
		SkipChannel: internal,
		Chans:       boundary,
		IterLimit:   opts.IterLimit,
	}); err != nil {
		return nil, err
	}

	eng := newEngine(a, sub, dres, kern, opts.Trace, iters, limit)
	eng.build(boundary)

	if err := kern.Run(limit); err != nil {
		return nil, err
	}
	return &Result{
		Stats:      kern.Stats(),
		Trace:      opts.Trace,
		Iterations: eng.nodeDone[eng.outNode],
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

func iterationCount(a *model.Architecture) (int, error) {
	if len(a.Sources) == 0 {
		return 0, fmt.Errorf("hybrid: architecture has no sources")
	}
	n := a.Sources[0].Count
	for _, s := range a.Sources[1:] {
		if s.Count != n {
			return 0, fmt.Errorf("hybrid: sources produce different token counts (%d vs %d)", n, s.Count)
		}
	}
	return n, nil
}

// checkBoundary enforces the supported abstraction boundary: exactly one
// output, whose node has no zero-delay dependents (other than the read
// node of its own FIFO channel).
func checkBoundary(dres *derive.Result) error {
	if len(dres.Inputs) == 0 {
		return fmt.Errorf("hybrid: group has no boundary inputs")
	}
	if len(dres.Outputs) != 1 {
		return fmt.Errorf("hybrid: group has %d boundary output channels; exactly 1 is supported", len(dres.Outputs))
	}
	out := dres.Outputs[0]
	g := dres.Graph
	for _, n := range g.Nodes() {
		for _, arc := range g.Incoming(n.ID) {
			if arc.From != out.Node || arc.Delay != 0 {
				continue
			}
			if out.Channel.Kind == model.FIFO && n.Name == out.Channel.Name+".r" {
				continue // the xw -> xr arc of the boundary FIFO itself
			}
			return fmt.Errorf("hybrid: instant %q depends on the boundary output in the same iteration; emit boundary outputs as the writer's final statement", n.Name)
		}
	}
	return nil
}

// boundaryLabels lists the instant labels recorded by the boundary
// channel runtimes, which the computed recording must skip.
func boundaryLabels(sub *subArch) map[string]bool {
	skip := map[string]bool{}
	for _, chs := range [][]*model.Channel{sub.inOrig, sub.outOrig} {
		for _, ch := range chs {
			for _, label := range chanrt.Labels(ch) {
				skip[label] = true
			}
		}
	}
	return skip
}
