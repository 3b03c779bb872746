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
	progress  *sim.Event

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
		progress: kern.NewEvent("hybrid:progress"),
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
	e.kern.Spawn("Compute:"+e.sub.arch.Name, func(p *sim.Proc) {
		e.runComputer(p)
	})
	outOrig := e.sub.outOrig[0]
	rt := boundary[outOrig]
	e.kern.Spawn("Emission:"+outOrig.Name, func(p *sim.Proc) {
		e.runEmission(p, outOrig, rt)
	})
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
	for k := 0; k < e.iters; k++ {
		for !e.gateReady(ib, k) {
			p.WaitEvent(e.progress)
		}
		gate, err := e.gateValue(ib, k)
		if err != nil {
			p.Kernel().Fail(err)
			return
		}
		if !gate.IsEpsilon() && sim.Time(gate) > p.Now() {
			p.WaitUntil(sim.Time(gate))
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
		e.progress.Notify()
	}
}

// runComputer computes every node instant whose references are final,
// in topological order within a sweep and across iterations, until a
// sweep makes no progress; then it parks until a reception or the
// emission advances. Progress notifications are batched: waiters
// re-check only when the computer is about to park — computing a node
// costs no kernel events, which is the point of the method.
func (e *engine) runComputer(p *sim.Proc) {
	topo := e.graph.TopoOrder()
	for {
		// low is the earliest iteration any ring reader may still need:
		// nodes (through their arcs and the receptions' gates), the
		// emission's confirmation and the trace recorder.
		low := min(e.confirmed, e.recorded)
		for _, d := range e.nodeDone {
			low = min(low, d)
		}
		progressed := false
		for _, id := range topo {
			for k := e.nodeDone[id]; k < e.iters && k < low+e.lead && e.ready(id, k); k++ {
				if err := e.compute(id, k); err != nil {
					p.Kernel().Fail(err)
					return
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
				p.Kernel().Fail(err)
				return
			}
		}
		if progressed {
			continue
		}
		e.progress.Notify()
		if done == e.iters {
			return
		}
		p.WaitEvent(e.progress)
	}
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
// instant that later iterations' rotation gates reference.
func (e *engine) runEmission(p *sim.Proc, orig *model.Channel, rt chanrt.RT) {
	for k := 0; k < e.iters; k++ {
		for len(e.ys) <= k {
			p.WaitEvent(e.progress)
		}
		y := e.ys[k]
		if !y.IsEpsilon() && sim.Time(y) > p.Now() {
			p.WaitUntil(sim.Time(y))
		}
		rt.Write(p, e.arch.TokenOf(orig, k))
		actual := maxplus.T(p.Now())
		if fifo, ok := rt.(*chanrt.FIFO); ok {
			actual = fifo.WriteInstant(k)
		}
		*e.slot(e.outNode, k) = actual
		e.confirmed = k + 1
		e.progress.Notify()
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
// A row that fails to fill here failed the run already, when the
// computer first needed it.
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
