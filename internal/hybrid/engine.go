package hybrid

import (
	"dyncomp/internal/chanrt"
	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/tdg"
)

// engine drives the abstracted group with a stage-wise ("wave")
// evaluation of the temporal dependency graph.
//
// A monolithic ComputeInstant(k) would have to wait for the boundary
// transfer of iteration k-1 (the output writer's rotation gate references
// it), and that wait can fall later than instants other parts of
// iteration k need — physically delaying the boundary reads and
// distorting the trace. Instead, each node of iteration k is computed as
// soon as its own dependencies allow: a node at minimum delay-distance d
// from the output node waits only for the confirmation of output
// iteration k-d. Because every such node's value is, by (max,+)
// path-monotonicity, at least the confirmed transfer instant it waits
// for, the waits never push any simulated event past its true instant.
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
	prog     *tdg.Program
	depth    int
	ring     []maxplus.T
	nodeDone []int // computed iterations per node
	outDist  []int // min delay-distance from the output node; -1 unreachable
	outNode  tdg.NodeID

	ys        []maxplus.T // emission-ready instants y(k)
	confirmed int
	progress  *sim.Event

	vals      []maxplus.T
	skipLabel map[string]bool
}

func newEngine(a *model.Architecture, sub *subArch, dres *derive.Result, kern *sim.Kernel, trace *observe.Trace, iters int, limit sim.Time) *engine {
	g := dres.Graph
	depth := g.MaxDelay() + 1
	e := &engine{
		arch:     a,
		sub:      sub,
		dres:     dres,
		kern:     kern,
		trace:    trace,
		limit:    maxplus.T(limit),
		iters:    iters,
		inputs:   make([]int, len(dres.Inputs)),
		graph:    g,
		prog:     dres.Program(),
		depth:    depth,
		ring:     make([]maxplus.T, g.NodeCount()*depth),
		nodeDone: make([]int, g.NodeCount()),
		outNode:  dres.Outputs[0].Node,
		progress: kern.NewEvent("hybrid:progress"),
	}
	for i := range e.ring {
		e.ring[i] = maxplus.Epsilon
	}
	e.arrRing = make([][]maxplus.T, len(dres.Inputs))
	for i := range e.arrRing {
		e.arrRing[i] = make([]maxplus.T, depth)
	}
	e.outDist = outDistances(g, e.outNode)
	if trace != nil {
		e.vals = make([]maxplus.T, g.NodeCount())
		e.skipLabel = boundaryLabels(sub)
	}
	return e
}

// outDistances computes, for every node, the minimum total arc delay of a
// path (with at least one arc) from the output node, following arc
// direction. Nodes unreachable from the output get -1.
func outDistances(g *tdg.Graph, out tdg.NodeID) []int {
	n := g.NodeCount()
	const inf = int(^uint(0) >> 1)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = inf
	}
	type edge struct {
		to    tdg.NodeID
		delay int
	}
	fwd := make([][]edge, n)
	for _, node := range g.Nodes() {
		for _, a := range g.Incoming(node.ID) {
			fwd[a.From] = append(fwd[a.From], edge{to: node.ID, delay: a.Delay})
		}
	}
	// Relaxation from the output's direct successors.
	work := []tdg.NodeID{}
	for _, e := range fwd[out] {
		if e.delay < dist[e.to] {
			dist[e.to] = e.delay
			work = append(work, e.to)
		}
	}
	for len(work) > 0 {
		v := work[0]
		work = work[1:]
		for _, e := range fwd[v] {
			nd := dist[v] + e.delay
			if nd < dist[e.to] {
				dist[e.to] = nd
				work = append(work, e.to)
			}
		}
	}
	res := make([]int, n)
	for i, d := range dist {
		if d == inf {
			res[i] = -1
		} else {
			res[i] = d
		}
	}
	return res
}

func (e *engine) slot(id tdg.NodeID, k int) *maxplus.T {
	return &e.ring[int(id)*e.depth+(k%e.depth)]
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

func (e *engine) gateValue(ib derive.InputBinding, k int) maxplus.T {
	gate := maxplus.Epsilon
	for _, a := range ib.Gate {
		v := e.value(a.From, k-a.Delay)
		if v == maxplus.Epsilon {
			continue
		}
		gate = maxplus.Oplus(gate, a.Weight.Apply(v, k))
	}
	for _, sg := range ib.SameIterGate {
		v := sg.Weight.Apply(e.arrRing[sg.InputIndex][k%e.depth], k)
		gate = maxplus.Oplus(gate, v)
	}
	return gate
}

func (e *engine) runReception(p *sim.Proc, idx int, ib derive.InputBinding, rt chanrt.RT) {
	fifo, _ := rt.(*chanrt.FIFO)
	for k := 0; k < e.iters; k++ {
		for !e.gateReady(ib, k) {
			p.WaitEvent(e.progress)
		}
		gate := e.gateValue(ib, k)
		if !gate.IsEpsilon() && sim.Time(gate) > p.Now() {
			p.WaitUntil(sim.Time(gate))
		}
		rt.Read(p)
		arrival := maxplus.T(p.Now())
		if fifo != nil {
			arrival = fifo.WriteInstant(k)
		}
		e.arrRing[idx][k%e.depth] = arrival
		e.inputs[idx] = k + 1
		e.progress.Notify()
	}
}

// runComputer evaluates iteration k node by node in topological order,
// waiting per node for the arrivals and output confirmations it actually
// depends on. Progress notifications are batched: waiters re-check only
// when the computer is about to block (so their own progress can unblock
// it) and when an iteration completes — computing a node costs no kernel
// events, which is the point of the method.
func (e *engine) runComputer(p *sim.Proc) {
	topo := e.graph.TopoOrder()
	uIdx := map[tdg.NodeID]int{}
	for i, id := range e.graph.Inputs() {
		uIdx[id] = i
	}
	// block flushes pending progress and parks until someone advances.
	block := func() {
		e.progress.Notify()
		p.WaitEvent(e.progress)
	}
	for k := 0; k < e.iters; k++ {
		for _, id := range topo {
			n := e.graph.Nodes()[id]
			if n.Kind == tdg.Input {
				i := uIdx[id]
				for e.inputs[i] <= k {
					block()
				}
				*e.slot(id, k) = e.arrRing[i][k%e.depth]
				e.nodeDone[id] = k + 1
				continue
			}
			// Wait for the output confirmation this node's value may
			// reference (directly or transitively).
			if d := e.outDist[id]; d >= 0 && k-d >= 0 {
				for e.confirmed < k-d+1 {
					block()
				}
			}
			// The compiled arc table shares the evaluator ring layout, so
			// the wave evaluation gets the flat fast path too.
			acc := e.prog.EvalIncoming(e.ring, id, k)
			*e.slot(id, k) = acc
			e.nodeDone[id] = k + 1
			if id == e.outNode {
				e.ys = append(e.ys, acc)
			}
		}
		if e.trace != nil {
			e.record(k)
		}
		e.progress.Notify()
	}
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

// record reconstructs the group's observable evolution of iteration k:
// internal instant labels (boundary channels are recorded by their real
// runtimes) and execution activities, except those past the time limit.
func (e *engine) record(k int) {
	for _, n := range e.graph.Nodes() {
		label, ok := e.dres.Labels[n.ID]
		if !ok || e.skipLabel[label] {
			continue
		}
		if v := e.value(n.ID, k); v <= e.limit {
			e.trace.RecordInstant(label, v)
		}
	}
	for _, pr := range e.dres.Probes {
		start := pr.Start(e.value(pr.Base, k), k)
		if start == maxplus.Epsilon || start > e.limit {
			continue
		}
		load := pr.Exec.Load(k)
		e.trace.RecordActivity(observe.Activity{
			Resource: pr.Exec.Resource.Name,
			Label:    pr.Exec.Label,
			K:        k,
			Start:    start,
			End:      maxplus.Otimes(start, pr.Exec.Resource.DurationOf(load)),
			Ops:      load.Ops,
		})
	}
}
