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
// evaluation of the temporal dependency graph's compiled program.
//
// A monolithic ComputeInstant(k) would have to wait for the boundary
// transfer of iteration k-1 (the output writer's rotation gate references
// it), and that wait can fall later than instants other parts of
// iteration k need — physically delaying the boundary reads and
// distorting the trace. Instead, each node instant is computed as soon as
// the instants its arcs reference are final, across iterations: a group
// that pipelines several iterations between its boundary input and
// output computes the gates of later receptions while earlier
// iterations still wait for their output confirmation.
//
// One finality rule covers every node: nodeDone[n] counts node n's final
// iterations, and a node's iteration k is computed once every instant it
// references is final (tdg.Program.Ready) — an input node's instants are
// its observed arrivals, the output node's its confirmed transfers (the
// computed y(k) only schedules the emission), every other node's its
// computed values. Because every node's value is, by (max,+)
// path-monotonicity, at least the instants it waits for, the waits never
// push any simulated event past its true instant.
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
	prog  *tdg.Program
	kern  *sim.Kernel
	trace *observe.Trace
	limit maxplus.T // simulated-time bound; later instants go unrecorded
	iters int

	// Evaluation state.
	depth    int
	lead     int // iterations a node may run ahead of the ring's slowest reader
	ring     []maxplus.T
	nodeDone []int // final iterations per node
	outNode  tdg.NodeID

	// rows keeps one iteration row per ring slot: rows[slot*rowW:] holds
	// iteration rowK[slot]'s (see derive.Result.FillRow).
	rows []maxplus.T
	rowW int
	rowK []int

	ys       []maxplus.T // emission-ready instants y(k)
	recorded int         // iterations recorded into the trace

	recv []chanrt.Parked // one per boundary input
	emit chanrt.Parked

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
		prog:     dres.Program(),
		kern:     kern,
		trace:    trace,
		limit:    maxplus.T(limit),
		iters:    iters,
		vals:     make([]maxplus.T, g.NodeCount()),
		nodes:    dres.LabelledNodes(nil, boundaryLabels(sub)),
		depth:    depth,
		lead:     lead,
		ring:     make([]maxplus.T, g.NodeCount()*depth),
		rowW:     dres.RowWidth(),
		rows:     make([]maxplus.T, dres.RowWidth()*depth),
		rowK:     make([]int, depth),
		nodeDone: make([]int, g.NodeCount()),
		outNode:  dres.Outputs[0].Node,
		recorded: iters,
		recv:     make([]chanrt.Parked, len(dres.Inputs)),
		emit:     chanrt.NewParked(kern, "hybrid:emit"),
	}
	for i := range e.recv {
		e.recv[i] = chanrt.NewParked(kern, "hybrid:recv")
	}
	for i := range e.ring {
		e.ring[i] = maxplus.Epsilon
	}
	for i := range e.rowK {
		e.rowK[i] = -1
	}
	if trace != nil {
		e.recorded = 0
	}
	return e
}

func (e *engine) slot(id tdg.NodeID, k int) *maxplus.T {
	return &e.ring[int(id)*e.depth+(k%e.depth)]
}

// final stores node id's instant of iteration k and marks it final.
func (e *engine) final(id tdg.NodeID, k int, v maxplus.T) {
	*e.slot(id, k) = v
	e.nodeDone[id] = k + 1
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
// is final.
func (e *engine) gateReady(ib derive.InputBinding, k int) bool {
	for _, a := range ib.Gate {
		if a.Delay <= k && e.nodeDone[a.From] <= k-a.Delay {
			return false
		}
	}
	for _, sg := range ib.SameIterGate {
		if e.nodeDone[e.dres.Inputs[sg.InputIndex].U] <= k {
			return false
		}
	}
	return true
}

// gateValue evaluates the k-th gate of ib; gateReady must hold.
func (e *engine) gateValue(ib derive.InputBinding, k int) (maxplus.T, error) {
	row, err := e.row(k)
	if err != nil {
		return maxplus.Epsilon, err
	}
	gate := maxplus.Epsilon
	for _, a := range ib.Gate {
		if a.Delay > k {
			continue
		}
		if v := *e.slot(a.From, k-a.Delay); v != maxplus.Epsilon {
			gate = maxplus.Oplus(gate, a.Weight.Apply(v, row))
		}
	}
	for _, sg := range ib.SameIterGate {
		v := sg.Weight.Apply(*e.slot(e.dres.Inputs[sg.InputIndex].U, k), row)
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
			gate = w.Wait(p, k) // advance fires it at the gate
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
		e.final(ib.U, k, arrival)
		if err := e.advance(); err != nil {
			p.Kernel().Fail(err)
			return
		}
	}
}

// done returns the number of iterations final at every node.
func (e *engine) done() int {
	done := e.iters
	for _, d := range e.nodeDone {
		done = min(done, d)
	}
	return done
}

// advance computes every node instant whose references are final, records
// the iterations it completed, and fires each parked boundary process
// whose action became computable. It runs in zero simulation time after
// every arrival and every confirmed emission, the only changes that make
// more instants final: computing a node costs no kernel event, which is
// the point of the method.
//
// One pass reaches the fixpoint. It visits iterations k = low, low+1, …
// and, within each, the program's nodes in evaluation order, computing
// each node whose next iteration is k and that is ready. Node n's
// iteration k references only earlier iterations, which the pass has
// visited, and earlier nodes of iteration k, which it has just visited;
// arrivals and confirmations do not change inside the pass. A node's
// next iteration is at most one past the latest final one, so the pass
// ends after the last iteration any node can reach, at iters, or lead
// iterations past low.
func (e *engine) advance() error {
	hi := len(e.ys)
	for _, d := range e.nodeDone {
		hi = max(hi, d)
	}
	// low is the earliest iteration any ring reader may still need: a
	// node (through its arcs and the receptions' gates) or the recorder.
	low := min(e.done(), e.recorded)
	for k := low; k <= hi && k < e.iters && k < low+e.lead; k++ {
		for i := range e.prog.Len() {
			id := e.prog.Node(i)
			next := e.nodeDone[id]
			if id == e.outNode {
				next = len(e.ys)
			}
			if next != k || !e.prog.Ready(i, k, e.nodeDone) {
				continue
			}
			row, err := e.row(k)
			if err != nil {
				return err
			}
			v := e.prog.EvalAt(i, k, e.ring, e.depth, row)
			if id == e.outNode {
				e.ys = append(e.ys, v)
			} else {
				e.final(id, k, v)
			}
			hi = max(hi, k+1)
		}
		done := e.done()
		for ; e.recorded < done; e.recorded++ {
			if _, err := e.record(e.trace, e.recorded); err != nil {
				return err
			}
		}
		low = min(done, e.recorded)
	}
	now := e.kern.Now()
	for i := range e.recv {
		w := &e.recv[i]
		k := w.Waiting()
		if k < 0 || !e.gateReady(e.dres.Inputs[i], k) {
			continue
		}
		gate, err := e.gateValue(e.dres.Inputs[i], k)
		if err != nil {
			return err
		}
		w.Fire(now, gate)
	}
	if k := e.emit.Waiting(); k >= 0 && len(e.ys) > k {
		e.emit.Fire(now, e.ys[k])
	}
	return nil
}

// runEmission replays the computed output instants onto the real boundary
// channel and makes each observed transfer final: the output node's
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
			e.emit.Wait(p, k) // advance fires it at y(k)
		}
		rt.Write(p, src.TokenAt(k))
		actual := maxplus.T(p.Now())
		if fifo != nil {
			actual = fifo.WriteInstant(k)
		}
		e.final(e.outNode, k, actual)
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
