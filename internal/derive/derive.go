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
	"errors"
	"fmt"
	"sync/atomic"

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
// equivalent model needs to drive it. A Result is immutable, so it is
// safe for concurrent use.
type Result struct {
	Arch    *model.Architecture
	Graph   *tdg.Graph
	Inputs  []InputBinding
	Outputs []OutputBinding
	// Labels names the nodes whose instants are recorded in traces
	// (channel transfer nodes and auxiliary end-of-turn nodes), matching
	// the labels the reference executor records.
	Labels map[tdg.NodeID]string

	// Rebinding metadata (see Rebind): the structural shape key, the
	// derivation options and the row plan. All of it is shared by every
	// Rebind of one Derive.
	shapeKey string
	opts     Options
	plan     *plan
	in       *inputs // the plan bound to Arch

	// prog is the graph compiled into a flat evaluation program
	// (tdg.Compile) with in bound to its row weights. Rebound results
	// share the template's graph and compiled structure and bind their
	// own inputs (tdg.Program.Bind); they share one evaluator pool.
	prog *tdg.Program
}

// Program returns the compiled evaluation program of the derived graph,
// which every engine evaluates (Program().NewEvaluator()).
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

	fnIdx map[*model.Function]int
	pl    *planner
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
	d.pl = newPlanner(a, d.fnIdx)
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
		Arch: a, Graph: d.g, Labels: d.labels,
		shapeKey: key,
		opts:     opts,
		plan:     &d.pl.p,
	}
	res.in = res.plan.bind(a)
	prog, err := tdg.Compile(d.g)
	if err != nil {
		return nil, err
	}
	if res.prog, err = prog.Bind(res.in); err != nil {
		return nil, err
	}
	if err := d.buildBindings(res); err != nil {
		return nil, err
	}
	return res, nil
}

// buildBindings computes the input and output bindings of a fresh
// derivation. Rebind shares them with the new architecture's sources
// and sinks swapped in: the gate arcs are structural.
func (d *deriver) buildBindings(res *Result) error {
	a := d.arch
	transferIndex := map[tdg.NodeID]int{}
	for i, s := range a.Sources {
		transferIndex[d.writeNode[s.Ch]] = i
	}
	for _, s := range a.Sources {
		ib, err := d.inputBinding(s, transferIndex)
		if err != nil {
			return err
		}
		res.Inputs = append(res.Inputs, ib)
	}
	for _, s := range a.Sinks {
		res.Outputs = append(res.Outputs, OutputBinding{
			Sink:    s,
			Channel: s.Ch,
			Node:    d.writeNode[s.Ch],
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
			d.g.AddArc(w, r, 0, tdg.Weight{})
			d.g.AddArc(r, w, ch.Capacity, tdg.Weight{})
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
			d.pl.probe(ready[0].node, pre, info)
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
// solution). A weighted arc reads its weight from the iteration row: the
// entry of its exec statement's duration, or of the ⊗ fold of its
// statements' durations in body order.
func (d *deriver) addArcs(to tdg.NodeID, expr []term) {
	for _, t := range expr {
		if t.node == to && t.delay == 0 && len(t.durs) == 0 {
			continue
		}
		if len(t.durs) == 0 {
			d.g.AddArc(t.node, to, t.delay, tdg.Weight{})
			continue
		}
		d.g.AddArc(t.node, to, t.delay, d.pl.weight(t.durs))
	}
}

// connectSources feeds each source's schedule instant into its channel.
func (d *deriver) connectSources() {
	for _, s := range d.arch.Sources {
		d.g.AddArc(d.uNode[s], d.writeNode[s.Ch], 0, tdg.Weight{})
	}
}

// ErrUnsupportedBoundary reports an input whose reception gate reads a
// same-iteration instant that is not another input's arrival: the
// boundary engine cannot know it before accepting the input.
var ErrUnsupportedBoundary = errors.New("this abstraction boundary is unsupported")

// inputBinding extracts the Reception gate of a source channel: every arc
// into the boundary node other than the source's own contribution. For
// the equivalent model to compute the gate before accepting iteration k,
// every such arc must either be delayed (history suffices) or originate
// from another input's boundary node (its arrival instant is known before
// ComputeInstant runs).
func (d *deriver) inputBinding(s *model.Source, transferIndex map[tdg.NodeID]int) (InputBinding, error) {
	ib := InputBinding{
		Source:   s,
		Channel:  s.Ch,
		U:        d.uNode[s],
		Transfer: d.writeNode[s.Ch],
	}
	for _, a := range d.g.Incoming(d.readNode[s.Ch]) { // rendezvous: == Transfer; FIFO: xr
		if a.From == ib.U {
			continue
		}
		if s.Ch.Kind == model.FIFO && a.From == ib.Transfer && a.Delay == 0 {
			continue // data availability, not readiness
		}
		if a.Delay == 0 {
			other, ok := transferIndex[a.From]
			if !ok {
				return ib, fmt.Errorf(
					"derive: input channel %q readiness depends on same-iteration instant %q; %w",
					s.Ch.Name, d.g.Nodes()[a.From].Name, ErrUnsupportedBoundary)
			}
			ib.SameIterGate = append(ib.SameIterGate, SameIterGate{InputIndex: other, Weight: a.Weight})
			continue
		}
		ib.Gate = append(ib.Gate, a)
	}
	return ib, nil
}
