// Package derive generates the temporal dependency graph of an
// architecture model automatically, by symbolic execution of one
// steady-state iteration of every function. The paper obtained these
// graphs by hand (equations (1)-(6), Fig. 3) and mentions a generation
// tool as work in progress; this package implements that tool.
//
// The derivation applies the exact semantics of the event-driven
// reference executor:
//
//   - each rendezvous channel M contributes one node x_M(k), receiving
//     arcs from both the writer-readiness and reader-readiness
//     expressions;
//   - each FIFO channel contributes two nodes xw_M(k) and xr_M(k), with
//     xr(k) ≥ xw(k) (data availability) and xw(k) ≥ xr(k-capacity)
//     (backpressure);
//   - a function's iteration start is gated by its resource rotation:
//     with concurrency c, turn t waits for the end of turn t-c. When that
//     gate collapses onto the function's own first read (the predecessor's
//     last write feeds it directly), the gate is realized by the
//     rendezvous itself and the function's own previous end takes its
//     place — which is how equation (3) of the paper acquires its
//     x_M4(k-1) term;
//   - execution durations accumulate multiplicatively (⊗) along the body
//     between synchronization points.
//
// Deriving the didactic example reproduces equations (1)-(6) node for
// node and arc for arc; tests assert this.
package derive

import (
	"fmt"
	"sync/atomic"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/tdg"
)

// Options tunes the derivation.
type Options struct {
	// PadNodes appends that many computationally active but semantically
	// inert nodes to the graph before freezing, to emulate more complex
	// computation methods (the Fig. 5 sweep).
	PadNodes int
	// Reduce removes value-redundant weightless arcs (see reduce),
	// producing graphs as minimal as the paper's hand-written ones. Off by
	// default to keep the derived structure literal.
	Reduce bool
}

// Probe locates one execution on the graph for resource-usage
// observation: the execution starts at Base(k) ⊗ Σ Pre durations and runs
// for Exec.Duration(k).
type Probe struct {
	Base tdg.NodeID
	Pre  []*model.ExecInfo
	Exec *model.ExecInfo
}

// Start returns the execution start instant given the value of Base at
// iteration k.
func (p Probe) Start(base maxplus.T, k int) maxplus.T {
	for _, e := range p.Pre {
		base = maxplus.Otimes(base, e.Duration(k))
	}
	return base
}

// InputBinding connects one source-fed channel to the graph.
type InputBinding struct {
	Source  *model.Source
	Channel *model.Channel
	// U is the graph input node fed with observed arrival instants.
	U tdg.NodeID
	// Transfer is the node holding the boundary transfer instant
	// (rendezvous x_M, or FIFO xw_M).
	Transfer tdg.NodeID
	// Gate holds the delayed arcs expressing the abstracted subsystem's
	// readiness to accept iteration k from previous iterations; the
	// equivalent model's Reception process evaluates them before accepting
	// input.
	Gate []tdg.Arc
	// SameIterGate holds readiness terms depending on other inputs of the
	// same iteration (a function reading several boundary channels in one
	// body): the k-th token can be accepted only Weight(k) after input
	// InputIndex's k-th arrival.
	SameIterGate []SameIterGate
}

// SameIterGate is one same-iteration readiness term of an input channel.
type SameIterGate struct {
	InputIndex int
	Weight     tdg.Weight // zero value means identity
}

// OutputBinding connects one sink-drained channel to the graph.
type OutputBinding struct {
	Sink    *model.Sink
	Channel *model.Channel
	// Node holds the emission instant (rendezvous x_M, or FIFO xw_M).
	Node tdg.NodeID
}

// Result is a derived temporal dependency graph with everything the
// equivalent model needs to drive it.
type Result struct {
	Arch    *model.Architecture
	Graph   *tdg.Graph
	Inputs  []InputBinding
	Outputs []OutputBinding
	Probes  []Probe
	// Labels names the nodes whose instants are recorded in traces
	// (channel transfer nodes and auxiliary end-of-turn nodes), matching
	// the labels the reference executor records.
	Labels map[tdg.NodeID]string

	// Rebinding metadata (see Rebind): the structural shape key, the
	// derivation options, per-index node tables, and the exec-statement
	// recipes behind every weighted arc and probe. All of it is immutable
	// after Derive, so concurrent Rebinds from one Result are safe.
	shapeKey  string
	opts      Options
	srcU      []tdg.NodeID // input node per architecture source index
	chWrite   []tdg.NodeID // transfer/write node per channel index
	chRead    []tdg.NodeID // read node per channel index
	recipes   [][]execRef  // arc tag t -> recipes[t-1]
	probeRefs []probeRef

	// prog is the graph compiled into a flat evaluation program
	// (tdg.Compile). The cache/Rebind path compiles once per structural
	// shape and patches the rebound copies' weight tables in place of a
	// recompilation; rebound programs share one evaluator pool.
	prog *tdg.Program
}

// Program returns the compiled evaluation program of the derived graph,
// which every engine evaluates; tdg.NewEvaluator interprets Result.Graph
// bit-exactly for tests and tools.
func (res *Result) Program() *tdg.Program { return res.prog }

// term is one max-term of a readiness expression during symbolic
// execution: node(k-delay) ⊗ Σ durs.
type term struct {
	node  tdg.NodeID
	delay int
	durs  []*model.ExecInfo
}

type deriver struct {
	arch   *model.Architecture
	g      *tdg.Graph
	labels map[tdg.NodeID]string

	uNode     map[*model.Source]tdg.NodeID
	writeNode map[*model.Channel]tdg.NodeID // rendezvous x / FIFO xw
	readNode  map[*model.Channel]tdg.NodeID // rendezvous x / FIFO xr
	endNode   map[*model.Function]tdg.NodeID
	probes    []Probe

	fnIdx     map[*model.Function]int
	recipes   [][]execRef
	probeRefs []probeRef
}

// calls counts Derive invocations process-wide; tests and sweep
// statistics use it to demonstrate that caching actually avoids
// re-derivation.
var calls atomic.Int64

// Calls returns the number of times Derive has run in this process.
func Calls() int64 { return calls.Load() }

// Derive builds the temporal dependency graph of a validated
// architecture.
func Derive(a *model.Architecture, opts Options) (*Result, error) {
	calls.Add(1)
	if err := a.Validate(); err != nil {
		return nil, err
	}
	d := &deriver{
		arch:      a,
		g:         tdg.New(a.Name),
		labels:    map[tdg.NodeID]string{},
		uNode:     map[*model.Source]tdg.NodeID{},
		writeNode: map[*model.Channel]tdg.NodeID{},
		readNode:  map[*model.Channel]tdg.NodeID{},
		endNode:   map[*model.Function]tdg.NodeID{},
		fnIdx:     map[*model.Function]int{},
	}
	for i, f := range a.Functions {
		d.fnIdx[f] = i
	}
	if err := d.declareNodes(); err != nil {
		return nil, err
	}
	for _, f := range a.Functions {
		if err := d.deriveFunction(f); err != nil {
			return nil, err
		}
	}
	d.connectSources()

	if opts.Reduce {
		reduce(d.g)
	}
	if opts.PadNodes > 0 {
		// Hang the pads off the first input so every ComputeInstant
		// traverses them.
		d.g.AddPadChain(d.uNode[a.Sources[0]], opts.PadNodes)
	}
	if err := d.g.Freeze(); err != nil {
		return nil, err
	}

	key, err := ShapeKey(a)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Arch: a, Graph: d.g, Probes: d.probes, Labels: d.labels,
		shapeKey:  key,
		opts:      opts,
		srcU:      make([]tdg.NodeID, len(a.Sources)),
		chWrite:   make([]tdg.NodeID, len(a.Channels)),
		chRead:    make([]tdg.NodeID, len(a.Channels)),
		recipes:   d.recipes,
		probeRefs: d.probeRefs,
	}
	for i, s := range a.Sources {
		res.srcU[i] = d.uNode[s]
	}
	for i, ch := range a.Channels {
		res.chWrite[i] = d.writeNode[ch]
		res.chRead[i] = d.readNode[ch]
	}
	if res.prog, err = tdg.Compile(d.g); err != nil {
		return nil, err
	}
	if err := res.buildBindings(); err != nil {
		return nil, err
	}
	return res, nil
}

// buildBindings computes the input and output bindings of the result from
// its architecture and node tables. It runs after every (re)binding of
// the graph: the gate arcs it extracts carry the weights of the graph
// currently installed in the result.
func (res *Result) buildBindings() error {
	a := res.Arch
	chIdx := make(map[*model.Channel]int, len(a.Channels))
	for i, ch := range a.Channels {
		chIdx[ch] = i
	}
	transferIndex := map[tdg.NodeID]int{}
	for i, s := range a.Sources {
		transferIndex[res.chWrite[chIdx[s.Ch]]] = i
	}
	res.Inputs = nil
	for i, s := range a.Sources {
		ib, err := res.inputBinding(i, s, chIdx, transferIndex)
		if err != nil {
			return err
		}
		res.Inputs = append(res.Inputs, ib)
	}
	res.Outputs = nil
	for _, s := range a.Sinks {
		res.Outputs = append(res.Outputs, OutputBinding{
			Sink:    s,
			Channel: s.Ch,
			Node:    res.chWrite[chIdx[s.Ch]],
		})
	}
	return nil
}

// declareNodes creates every node before any arc is added, so functions
// can reference each other's instants regardless of processing order.
func (d *deriver) declareNodes() error {
	for _, s := range d.arch.Sources {
		d.uNode[s] = d.g.AddInput("u:" + s.Name)
	}
	for _, ch := range d.arch.Channels {
		switch ch.Kind {
		case model.Rendezvous:
			kind := tdg.Intermediate
			if ch.Sink != nil {
				kind = tdg.Output
			}
			n := d.g.AddNode(ch.Name, kind)
			d.writeNode[ch] = n
			d.readNode[ch] = n
			d.labels[n] = ch.Name
		case model.FIFO:
			wKind := tdg.Intermediate
			if ch.Sink != nil {
				wKind = tdg.Output
			}
			w := d.g.AddNode(ch.Name+".w", wKind)
			r := d.g.AddNode(ch.Name+".r", tdg.Intermediate)
			d.writeNode[ch] = w
			d.readNode[ch] = r
			d.labels[w] = ch.Name + ".w"
			d.labels[r] = ch.Name + ".r"
			// Data availability and backpressure.
			d.g.AddArc(w, r, 0, nil)
			d.g.AddArc(r, w, ch.Capacity, nil)
		default:
			return fmt.Errorf("derive: channel %q has unknown kind %v", ch.Name, ch.Kind)
		}
	}
	for _, f := range d.arch.Functions {
		if _, ok := f.Body[len(f.Body)-1].(model.Exec); ok {
			n := d.g.AddNode("end:"+f.Name, tdg.Intermediate)
			d.endNode[f] = n
			d.labels[n] = "end:" + f.Name
		}
	}
	// End nodes of functions finishing on a read or write reuse the
	// corresponding channel node.
	for _, f := range d.arch.Functions {
		if _, ok := d.endNode[f]; ok {
			continue
		}
		switch last := f.Body[len(f.Body)-1].(type) {
		case model.Write:
			d.endNode[f] = d.writeNode[last.Ch]
		case model.Read:
			d.endNode[f] = d.readNode[last.Ch]
		}
	}
	return nil
}

// gateTerms builds the readiness expression of a function's turn start.
func (d *deriver) gateTerms(f *model.Function) []term {
	r := f.Resource
	m := len(r.Rotation)
	c := r.Concurrency
	if c < 1 {
		c = 1
	}
	if c > m {
		c = m
	}
	j := f.RotIndex
	idx, delay := j-c, 0
	for idx < 0 {
		idx += m
		delay++
	}
	pred := r.Rotation[idx]
	gateNode := d.endNode[pred]

	if delay == 0 && gateNode == d.firstReadNode(f) {
		// The predecessor's turn ends by handing its last token to this
		// function: the gate is realized by the rendezvous itself and the
		// function's own previous end becomes the binding constraint
		// (equation (3) of the paper).
		return []term{{node: d.endNode[f], delay: 1}}
	}
	terms := []term{{node: gateNode, delay: delay}}
	if c > 1 && c < m {
		// Turns may end out of order: the own-previous-end constraint is
		// not subsumed by the windowed gate.
		terms = append(terms, term{node: d.endNode[f], delay: 1})
	}
	return terms
}

func (d *deriver) firstReadNode(f *model.Function) tdg.NodeID {
	first := f.Body[0].(model.Read) // validated
	return d.readNode[first.Ch]
}

// deriveFunction symbolically executes one iteration of f, adding its
// contribution arcs to every instant node it touches.
func (d *deriver) deriveFunction(f *model.Function) error {
	ready := d.gateTerms(f)
	for i, st := range f.Body {
		switch s := st.(type) {
		case model.Read:
			node := d.readNode[s.Ch]
			d.addArcs(node, ready)
			ready = []term{{node: node}}
		case model.Write:
			node := d.writeNode[s.Ch]
			d.addArcs(node, ready)
			ready = []term{{node: node}}
		case model.Exec:
			if len(ready) != 1 {
				return fmt.Errorf("derive: execute %q of %q has a non-unique start expression", s.Label, f.Name)
			}
			info, err := d.arch.ExecInfoOf(f, i)
			if err != nil {
				return err
			}
			pre := append([]*model.ExecInfo(nil), ready[0].durs...)
			d.probes = append(d.probes, Probe{Base: ready[0].node, Pre: pre, Exec: info})
			d.probeRefs = append(d.probeRefs, probeRef{
				base: ready[0].node,
				pre:  d.refsOf(pre),
				exec: execRef{fn: d.fnIdx[f], stmt: i},
			})
			ready[0].durs = append(pre, info) // fresh backing array via pre
		}
	}
	if aux, hasAux := d.auxEnd(f); hasAux {
		d.addArcs(aux, ready)
	}
	return nil
}

// auxEnd returns the auxiliary end node of f when its body ends in an
// Exec.
func (d *deriver) auxEnd(f *model.Function) (tdg.NodeID, bool) {
	if _, ok := f.Body[len(f.Body)-1].(model.Exec); !ok {
		return 0, false
	}
	return d.endNode[f], true
}

// addArcs adds one arc per term of expr into the target node, dropping
// weightless zero-delay self-references (x ⊕ ... = x on the least
// solution). Weighted arcs are tagged with the recipe of exec statements
// behind their weight so Rebind can reconstruct them for another
// parameter point.
func (d *deriver) addArcs(to tdg.NodeID, expr []term) {
	for _, t := range expr {
		if t.node == to && t.delay == 0 && len(t.durs) == 0 {
			continue
		}
		if len(t.durs) == 0 {
			d.g.AddArc(t.node, to, t.delay, nil)
			continue
		}
		d.recipes = append(d.recipes, d.refsOf(t.durs))
		d.g.AddWeightedArc(t.node, to, t.delay, weightOf(t.durs), len(d.recipes))
	}
}

// refsOf converts resolved exec statements into index-based references.
func (d *deriver) refsOf(durs []*model.ExecInfo) []execRef {
	refs := make([]execRef, len(durs))
	for i, e := range durs {
		refs[i] = execRef{fn: d.fnIdx[e.Func], stmt: e.StmtIndex}
	}
	return refs
}

// weightOf turns an accumulated duration list into an arc weight.
// Execution durations are data dependent (they evaluate the cost
// function on the k-th token), so the weight stays k-varying; the
// compiled evaluator routes it through its indirect side table.
func weightOf(durs []*model.ExecInfo) tdg.Weight {
	if len(durs) == 0 {
		return tdg.Weight{}
	}
	if len(durs) == 1 {
		e := durs[0]
		return tdg.VaryingWeight(func(k int) maxplus.T { return e.Duration(k) })
	}
	ds := append([]*model.ExecInfo(nil), durs...)
	return tdg.VaryingWeight(func(k int) maxplus.T {
		var sum maxplus.T
		for _, e := range ds {
			sum = maxplus.Otimes(sum, e.Duration(k))
		}
		return sum
	})
}

// connectSources feeds each source's schedule instant into its channel.
func (d *deriver) connectSources() {
	for _, s := range d.arch.Sources {
		d.g.AddArc(d.uNode[s], d.writeNode[s.Ch], 0, nil)
	}
}

// inputBinding extracts the Reception gate of a source channel: every arc
// into the boundary node other than the source's own contribution. For
// the equivalent model to compute the gate before accepting iteration k,
// every such arc must either be delayed (history suffices) or originate
// from another input's boundary node (its arrival instant is known before
// ComputeInstant runs).
func (res *Result) inputBinding(srcIdx int, s *model.Source, chIdx map[*model.Channel]int, transferIndex map[tdg.NodeID]int) (InputBinding, error) {
	ci := chIdx[s.Ch]
	ib := InputBinding{
		Source:   s,
		Channel:  s.Ch,
		U:        res.srcU[srcIdx],
		Transfer: res.chWrite[ci],
	}
	gateOn := res.chRead[ci] // rendezvous: == Transfer; FIFO: xr
	for _, a := range res.Graph.Incoming(gateOn) {
		if a.From == ib.U {
			continue
		}
		if s.Ch.Kind == model.FIFO && a.From == res.chWrite[ci] && a.Delay == 0 {
			continue // data availability, not readiness
		}
		if a.Delay == 0 {
			other, ok := transferIndex[a.From]
			if !ok {
				return ib, fmt.Errorf(
					"derive: input channel %q readiness depends on same-iteration instant %q; this abstraction boundary is unsupported",
					s.Ch.Name, res.Graph.Nodes()[a.From].Name)
			}
			ib.SameIterGate = append(ib.SameIterGate, SameIterGate{InputIndex: other, Weight: a.Weight})
			continue
		}
		ib.Gate = append(ib.Gate, a)
	}
	return ib, nil
}
