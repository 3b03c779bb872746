package hybrid

import (
	"errors"
	"fmt"

	"dyncomp/internal/chanrt"
	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/tdg"
)

// engine drives the abstracted group with a dataflow ("wave")
// evaluation of the temporal dependency graph.
//
// A monolithic ComputeInstant(k) would have to wait for the boundary
// transfer of iteration k-1 (the output writer's rotation gate references
// it), and that wait can fall later than instants other parts of
// iteration k need — physically delaying the boundary reads and
// distorting the trace. Instead, each node instant is computed as soon as
// the instants its arcs reference are final, across iterations: a group
// that pipelines several iterations between its boundary input and
// output computes the gates of later receptions while earlier
// iterations still wait for their output confirmation. References to
// the boundary output node wait for the confirmed transfer. Because
// every node's value is, by (max,+) path-monotonicity, at least the
// instants it waits for, the waits never push any simulated event past
// its true instant.
//
// The evaluation is no process of its own: advance runs it in zero
// simulation time inside the boundary process that made something new
// final (a reception's arrival, the emission's confirmed transfer), as
// the paper's Reception runs ComputeInstant. A boundary process whose
// next action is not yet computable parks on its own event; advance
// fires that event once, at the instant the action is due (the gate of
// the reception, y(k) of the emission), and wakes no one else.
//
// The ring keeps maxDelay+1+lead iterations per node, and no node runs
// more than lead iterations ahead of the slowest reader of the ring.
// A group that would need more lead than that delays a reception past
// its true instant; runReception detects it and fails the run with
// ErrPipelined instead of returning a wrong trace.
type engine struct {
	arch  *model.Architecture
	sub   *subArch
	dres  *derive.Result
	kern  *sim.Kernel
	trace *observe.Trace
	limit maxplus.T // simulated-time bound; later instants go unrecorded

	iters   int
	inputs  []int // arrived iterations per input
	arrRing [][]maxplus.T

	// Evaluation state.
	graph    *tdg.Graph
	depth    int
	lead     int // iterations a node may run ahead of the ring's slowest reader
	ring     []maxplus.T
	nodeDone []int // computed iterations per node
	inIdx    []int // input index per node; -1 for non-input nodes
	outNode  tdg.NodeID

	// rows keeps one iteration row per ring slot: rows[slot*rowW:] holds
	// iteration rowK[slot]'s (see derive.Result.FillRow).
	rows []maxplus.T
	rowW int
	rowK []int

	ys        []maxplus.T // emission-ready instants y(k)
	confirmed int
	recorded  int // iterations recorded into the trace

	recv []parked // one per boundary input
	emit parked

	topo []tdg.NodeID

	vals  []maxplus.T       // instants of the iteration being recorded
	nodes []derive.Labelled // the instants Record reconstructs
}

// ErrPipelined reports a group the wave evaluation could not keep exact:
// a boundary reception became ready only after the instant the
// reference executor reads at.
var ErrPipelined = errors.New("hybrid: group pipelines more iterations than the wave evaluation tracks")

// leadOf bounds how many iterations a node may run ahead of the ring's
// slowest reader. A pipeline cannot hold more iterations in flight than
// it has places to hold them: one per node, FIFO capacities included in
// the delays. Tests shrink it to exercise ErrPipelined.
var leadOf = func(g *tdg.Graph) int { return g.NodeCount() * (g.MaxDelay() + 1) }

func newEngine(a *model.Architecture, sub *subArch, dres *derive.Result, kern *sim.Kernel, trace *observe.Trace, iters int, limit sim.Time) *engine {
	g := dres.Graph
	lead := leadOf(g)
	depth := g.MaxDelay() + 1 + lead
	e := &engine{
		arch:     a,
		sub:      sub,
		dres:     dres,
		kern:     kern,
		trace:    trace,
		limit:    maxplus.T(limit),
		iters:    iters,
		inputs:   make([]int, len(dres.Inputs)),
		vals:     make([]maxplus.T, g.NodeCount()),
		nodes:    dres.LabelledNodes(nil, boundaryLabels(sub)),
		graph:    g,
		depth:    depth,
		lead:     lead,
		ring:     make([]maxplus.T, g.NodeCount()*depth),
		rowW:     dres.RowWidth(),
		rows:     make([]maxplus.T, dres.RowWidth()*depth),
		rowK:     make([]int, depth),
		nodeDone: make([]int, g.NodeCount()),
		inIdx:    make([]int, g.NodeCount()),
		outNode:  dres.Outputs[0].Node,
		recorded: iters,
		recv:     make([]parked, len(dres.Inputs)),
		emit:     parked{ev: kern.NewEvent("hybrid:emit"), k: -1},
		topo:     g.TopoOrder(),
	}
	for i := range e.recv {
		e.recv[i] = parked{ev: kern.NewEvent("hybrid:recv"), k: -1}
	}
	for i := range e.ring {
		e.ring[i] = maxplus.Epsilon
	}
	for i := range e.rowK {
		e.rowK[i] = -1
	}
	e.arrRing = make([][]maxplus.T, len(dres.Inputs))
	for i := range e.arrRing {
		e.arrRing[i] = make([]maxplus.T, depth)
	}
	for i := range e.inIdx {
		e.inIdx[i] = -1
	}
	for i, id := range g.Inputs() {
		e.inIdx[id] = i
	}
	if trace != nil {
		e.recorded = 0
	}
	return e
}

func (e *engine) slot(id tdg.NodeID, k int) *maxplus.T {
	return &e.ring[int(id)*e.depth+(k%e.depth)]
}

// row returns iteration k's row from the ring, filling its slot on
// first use. Iterations in flight never share a slot, and the row is a
// pure function of k, so a refill is only ever repeated work.
func (e *engine) row(k int) ([]maxplus.T, error) {
	slot := k % e.depth
	r := e.rows[slot*e.rowW : (slot+1)*e.rowW]
	if e.rowK[slot] != k {
		if err := e.dres.FillRow(k, r); err != nil {
			e.rowK[slot] = -1
			return nil, err
		}
		e.rowK[slot] = k
	}
	return r, nil
}

func (e *engine) value(id tdg.NodeID, k int) maxplus.T {
	if k < 0 || e.nodeDone[id] <= k {
		return maxplus.Epsilon
	}
	return *e.slot(id, k)
}

// parked is a boundary process waiting until its next action is
// computable: k is the iteration it waits for, -1 while it runs or is
// already scheduled, and at the instant advance scheduled it for.
type parked struct {
	ev *sim.Event
	k  int
	at maxplus.T
}

// fire schedules the parked process once, at instant at (now when at
// is ε or past), and marks it no longer parked.
func (w *parked) fire(now sim.Time, at maxplus.T) {
	w.k, w.at = -1, at
	if !at.IsEpsilon() && sim.Time(at) > now {
		w.ev.NotifyAt(sim.Time(at))
	} else {
		w.ev.Notify()
	}
}

// build spawns the boundary processes and computes what is final before
// any of them runs; an error there fails the kernel's run.
func (e *engine) build(boundary map[*model.Channel]chanrt.RT) {
	for i := range e.dres.Inputs {
		idx := i
		ib := e.dres.Inputs[i]
		orig := e.sub.inOrig[i]
		rt := boundary[orig]
		e.kern.Spawn("Reception:"+orig.Name, func(p *sim.Proc) {
			e.runReception(p, idx, ib, rt)
		})
	}
	outOrig := e.sub.outOrig[0]
	rt := boundary[outOrig]
	src := e.arch.SourceOf(outOrig)
	e.kern.Spawn("Emission:"+outOrig.Name, func(p *sim.Proc) {
		e.runEmission(p, src, rt)
	})
	if err := e.advance(); err != nil {
		e.kern.Fail(err)
	}
}

// gateReady reports whether every instant the k-th gate of ib references
// is final. References to the boundary output node require the confirmed
// transfer (the external reader's backpressure), not the provisional
// emission-ready value.
func (e *engine) gateReady(ib derive.InputBinding, k int) bool {
	for _, a := range ib.Gate {
		if a.Delay > k {
			continue
		}
		need := k - a.Delay + 1
		if a.From == e.outNode {
			if e.confirmed < need {
				return false
			}
		} else if e.nodeDone[a.From] < need {
			return false
		}
	}
	for _, sg := range ib.SameIterGate {
		if e.inputs[sg.InputIndex] <= k {
			return false
		}
	}
	return true
}

func (e *engine) gateValue(ib derive.InputBinding, k int) (maxplus.T, error) {
	row, err := e.row(k)
	if err != nil {
		return maxplus.Epsilon, err
	}
	gate := maxplus.Epsilon
	for _, a := range ib.Gate {
		v := e.value(a.From, k-a.Delay)
		if v == maxplus.Epsilon {
			continue
		}
		gate = maxplus.Oplus(gate, a.Weight.Apply(v, row))
	}
	for _, sg := range ib.SameIterGate {
		v := sg.Weight.Apply(e.arrRing[sg.InputIndex][k%e.depth], row)
		gate = maxplus.Oplus(gate, v)
	}
	return gate, nil
}

func (e *engine) runReception(p *sim.Proc, idx int, ib derive.InputBinding, rt chanrt.RT) {
	fifo, _ := rt.(*chanrt.FIFO)
	rv, _ := rt.(*chanrt.RV)
	w := &e.recv[idx]
	for k := 0; k < e.iters; k++ {
		var gate maxplus.T
		if e.gateReady(ib, k) {
			var err error
			if gate, err = e.gateValue(ib, k); err != nil {
				p.Kernel().Fail(err)
				return
			}
			if !gate.IsEpsilon() && sim.Time(gate) > p.Now() {
				p.WaitUntil(sim.Time(gate))
			}
		} else {
			w.k = k
			p.WaitEvent(w.ev) // advance fires it at the gate
			gate = w.at
		}
		rt.Read(p)
		read := maxplus.T(p.Now())
		arrival, offered := read, maxplus.Epsilon
		if fifo != nil {
			arrival = fifo.WriteInstant(k)
			offered = arrival
		} else {
			offered = maxplus.T(rv.Offered())
		}
		// The reference reads at the later of the reader's gate and the
		// writer's offer; a later read means the gate was computed late.
		if want := maxplus.Oplus(gate, offered); read > want {
			p.Kernel().Fail(fmt.Errorf("%w: %s read %d at %d ns, the reference reads at %d ns",
				ErrPipelined, e.sub.inOrig[idx].Name, k, read, want))
			return
		}
		e.arrRing[idx][k%e.depth] = arrival
		e.inputs[idx] = k + 1
		if err := e.advance(); err != nil {
			p.Kernel().Fail(err)
			return
		}
	}
}

// advance computes every node instant whose references are final, in
// topological order within a sweep and across iterations, until a sweep
// makes no progress; records the iterations it completed; and fires each
// parked boundary process whose action became computable. It runs in
// zero simulation time after every arrival and every confirmed emission,
// the only changes that make more instants final: computing a node
// costs no kernel event, which is the point of the method.
func (e *engine) advance() error {
	for progressed := true; progressed; {
		// low is the earliest iteration any ring reader may still need:
		// nodes (through their arcs and the receptions' gates), the
		// emission's confirmation and the trace recorder.
		low := min(e.confirmed, e.recorded)
		for _, d := range e.nodeDone {
			low = min(low, d)
		}
		progressed = false
		for _, id := range e.topo {
			for k := e.nodeDone[id]; k < e.iters && k < low+e.lead && e.ready(id, k); k++ {
				if err := e.compute(id, k); err != nil {
					return err
				}
				progressed = true
			}
		}
		done := e.iters
		for _, d := range e.nodeDone {
			done = min(done, d)
		}
		for ; e.recorded < done; e.recorded++ {
			if _, err := e.record(e.trace, e.recorded); err != nil {
				return err
			}
		}
	}
	now := e.kern.Now()
	for i := range e.recv {
		w := &e.recv[i]
		if w.k < 0 || !e.gateReady(e.dres.Inputs[i], w.k) {
			continue
		}
		gate, err := e.gateValue(e.dres.Inputs[i], w.k)
		if err != nil {
			return err
		}
		w.fire(now, gate)
	}
	if w := &e.emit; w.k >= 0 && len(e.ys) > w.k {
		w.fire(now, e.ys[w.k])
	}
	return nil
}

// ready reports whether every instant node id's iteration k references
// is final: an arrived boundary input, a computed node, or — for the
// boundary output node — a confirmed transfer.
func (e *engine) ready(id tdg.NodeID, k int) bool {
	if i := e.inIdx[id]; i >= 0 {
		return e.inputs[i] > k
	}
	for _, a := range e.graph.Incoming(id) {
		if a.Delay > k {
			continue
		}
		if a.From == e.outNode {
			if e.confirmed <= k-a.Delay {
				return false
			}
		} else if e.nodeDone[a.From] <= k-a.Delay {
			return false
		}
	}
	return true
}

// compute evaluates node id at iteration k: an input takes its recorded
// arrival, every other node ⊕ over its arcs (references before the
// origin are ε).
func (e *engine) compute(id tdg.NodeID, k int) error {
	acc := maxplus.Epsilon
	if i := e.inIdx[id]; i >= 0 {
		acc = e.arrRing[i][k%e.depth]
	} else {
		row, err := e.row(k)
		if err != nil {
			return err
		}
		for _, a := range e.graph.Incoming(id) {
			if a.Delay > k {
				continue
			}
			if src := *e.slot(a.From, k-a.Delay); src != maxplus.Epsilon {
				acc = maxplus.Oplus(acc, a.Weight.Apply(src, row))
			}
		}
	}
	*e.slot(id, k) = acc
	e.nodeDone[id] = k + 1
	if id == e.outNode {
		e.ys = append(e.ys, acc)
	}
	return nil
}

// runEmission replays the computed output instants onto the real boundary
// channel and confirms each observed transfer, correcting the stored
// instant that later iterations' rotation gates reference. src is the
// source whose tokens the output channel carries.
func (e *engine) runEmission(p *sim.Proc, src *model.Source, rt chanrt.RT) {
	fifo, _ := rt.(*chanrt.FIFO)
	for k := 0; k < e.iters; k++ {
		if len(e.ys) > k {
			if y := e.ys[k]; !y.IsEpsilon() && sim.Time(y) > p.Now() {
				p.WaitUntil(sim.Time(y))
			}
		} else {
			e.emit.k = k
			p.WaitEvent(e.emit.ev) // advance fires it at y(k)
		}
		rt.Write(p, src.TokenAt(k))
		actual := maxplus.T(p.Now())
		if fifo != nil {
			actual = fifo.WriteInstant(k)
		}
		*e.slot(e.outNode, k) = actual
		e.confirmed = k + 1
		if err := e.advance(); err != nil {
			p.Kernel().Fail(err)
			return
		}
	}
}

// record reconstructs the group's observable evolution of iteration k
// from the wave ring into trace (nil records nothing): internal instant
// labels (boundary channels are recorded by their real runtimes) and
// execution activities, except those past the time limit. Nodes not
// computed for k — the run ended first — count as past the limit. It
// returns the latest instant or activity end of the iteration.
func (e *engine) record(trace *observe.Trace, k int) (maxplus.T, error) {
	row, err := e.row(k)
	if err != nil {
		return maxplus.Epsilon, err
	}
	for id := range e.vals {
		e.vals[id] = maxplus.Top
		if e.nodeDone[id] > k {
			e.vals[id] = *e.slot(tdg.NodeID(id), k)
		}
	}
	end, _ := e.dres.Record(trace, e.nodes, e.vals, row, k, e.limit)
	return end, nil
}

// finish records the iterations the run cut short and returns the final
// time: the kernel's, or later, the latest instant or activity end of
// the last whole iteration within the limit. The kernel sees only the
// group's boundary events, while the reference executor also simulates
// an internal execution or transfer that ends after the last of them.
// A row that fails to fill here failed the run already, when advance
// first needed it.
func (e *engine) finish() sim.Time {
	done, last := e.iters, 0
	for _, d := range e.nodeDone {
		done, last = min(done, d), max(last, d)
	}
	for ; e.recorded < last; e.recorded++ {
		if _, err := e.record(e.trace, e.recorded); err != nil {
			break
		}
	}
	t := e.kern.Stats().FinalTime
	if done == 0 {
		return t
	}
	end, err := e.record(nil, done-1)
	if err != nil {
		return t
	}
	return max(t, sim.Time(min(end, e.limit)))
}
