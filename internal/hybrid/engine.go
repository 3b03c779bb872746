package hybrid

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"dyncomp/internal/chanrt"
	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/tdg"
)

// engine drives an abstracted group — the whole architecture for the
// equivalent model — with a dataflow evaluation of its temporal
// dependency graph's compiled program.
//
// One finality rule covers every node: done[n] counts node n's final
// iterations. An input node's instants are its observed arrivals. An
// output read by an environment sink is final when computed: a sink
// never blocks, so its transfer happens at y(k). An output read by a
// simulated function is final at its confirmed transfer (the computed
// y(k) only schedules the emission; the reader can make the transfer
// later). Every other node is final when computed.
//
// Readiness is counted: cnt[i] holds the number of references of node
// i's next iteration that are not final. A final instant decrements the
// counts of its readers, and a node whose count reaches zero joins the
// worklist advance computes from; nothing is rescanned. Because every
// node's value is, by (max,+) path-monotonicity, at least the instants
// it waits for, no node is computed after its own instant, and the
// waits never push a simulated event past its true instant. When every
// output is sink-read and every node has a same-iteration reference
// (so that no node of an iteration is ready before one of its inputs
// arrives), the iteration whose inputs all arrived before any of its
// nodes was computed is ready as a whole, and advance computes it in
// one pass over the program.
//
// The evaluation is no process of its own: advance runs it in zero
// simulation time inside the boundary process that made something new
// final (a reception's arrival, an emission's confirmed transfer), as
// the paper's Reception runs ComputeInstant. A boundary process whose
// next action is not yet computable parks on its own event; advance
// fires that event once, at the instant the action is due (the gate of
// the reception, y(k) of the emission), and wakes no one else.
//
// The ring keeps maxDelay+1+lead iterations per node. Its readers are
// the nodes' arcs, the receptions' gates, the recorder and the
// emissions, which take y(k) from the ring: it holds what is in flight
// between a reception and the oldest emission still due. No node is
// computed lead iterations past low, the oldest iteration not yet final
// everywhere and emitted. The ring starts with a lead of one iteration
// and doubles when the lead holds a node back, up to leadOf's bound; a
// group that would need more than that makes a reception or an emission
// late, which the process detects and fails the run with ErrPipelined
// instead of returning a wrong trace.
type engine struct {
	dres  *derive.Result
	prog  *tdg.Program
	kern  *sim.Kernel
	trace *observe.Trace
	limit maxplus.T // simulated-time bound; later instants go unrecorded
	iters int

	depth   int // ring depth, a power of two
	mask    int // depth-1: k&mask is iteration k's slot
	lead    int // depth-maxDelay-1, at most maxLead
	maxLead int // leadOf's bound
	// ring[(k&mask)*stride + n] holds node n's instant of iteration k,
	// stride the node count (see tdg.Program).
	ring   []maxplus.T
	stride int

	// rows keeps one iteration row per ring slot: rows[slot*rowW:] holds
	// iteration rowK[slot]'s (see derive.Result.FillRow).
	rows []maxplus.T
	rowW int
	rowK []int

	// next and done count, per node, the iterations computed (an
	// input's: arrived) and final. Both are at least complete, and a
	// pass moves complete without writing them: read them through
	// nextOf and doneOf, or sync first.
	next      []int
	done      []int
	synced    int     // complete when next and done were last brought up to it
	tentative []bool  // per node: an output read by a simulated function
	cnt       []int32 // per program node: unresolved references of its next iteration
	fin       []int32 // per ring slot: program nodes final at that iteration
	complete  int     // iterations final at every node
	whole     bool    // an iteration whose inputs arrived is ready as a whole

	work     []int32 // program nodes whose count reached zero
	stallLow int     // low when the lead last held a ready node back; -1: none

	recv []reception // per input
	outs []emission  // per output

	vals  []maxplus.T       // instants of the iteration being recorded
	nodes []derive.Labelled // the instants Record reconstructs
}

// phase is where a boundary process is in its current iteration.
type phase uint8

const (
	// due: the action's instant (the reception's gate, the emission's
	// y(k)) is not yet known to be computable.
	due phase = iota
	// parked: advance fires the process at the action's instant.
	parked
	// acting: the instant is reached, and the transfer is next.
	acting
	// moving: the transfer is under way; the next call completes it.
	moving
)

// reception is the Reception process of input ib, which arrives on
// channel ch: for each iteration k it waits for the readiness gate,
// accepts the token (the rendezvous realizes max(u(k), gate)), and makes
// the arrival final, which runs ComputeInstant for what it completes.
type reception struct {
	e     *engine
	ib    *derive.InputBinding
	ch    *model.Channel
	rt    chanrt.RT
	w     chanrt.Parked
	k     int
	phase phase
	gate  maxplus.T
}

// emission is the Emission process of output j, which replays the
// output node's computed instants y(k) onto channel ch, carrying the
// tokens of src. A sink-read output was final when computed; the
// transfer of any other is observed and made final here: the instant
// later iterations' rotation gates reference.
type emission struct {
	e       *engine
	node    tdg.NodeID
	ch      *model.Channel
	src     *model.Source
	rt      chanrt.RT
	w       chanrt.Parked
	emitted int // iterations transferred
	phase   phase
	y       maxplus.T
	tok     model.Token
}

// ErrPipelined reports a group the wave evaluation could not keep exact:
// a boundary reception or emission became ready only after the instant
// the reference executor transfers at.
var ErrPipelined = errors.New("hybrid: group pipelines more iterations than the wave evaluation tracks")

// leadOf bounds how many iterations a node may run ahead of low. A
// pipeline cannot hold more iterations in flight than it has places to
// hold them: one per node, FIFO capacities included in the delays.
// Tests shrink it to exercise ErrPipelined.
var leadOf = func(g *tdg.Graph) int { return g.NodeCount() * (g.MaxDelay() + 1) }

// enginePool recycles engine state (ring, rows, counts, parked events)
// across runs; engineFor resizes it to the graph at hand.
var enginePool sync.Pool

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed returns s with length n and every element zero.
func zeroed[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// ceilPow2 returns the least power of two at least n.
func ceilPow2(n int) int { return 1 << bits.Len(uint(n-1)) }

// engineFor prepares the running state of one simulation of dres,
// whose boundary outputs are the channels out, from a pooled engine
// when one is available.
func engineFor(dres *derive.Result, out []*model.Channel, kern *sim.Kernel, trace *observe.Trace, iters int, limit sim.Time, skip []string) *engine {
	e, ok := enginePool.Get().(*engine)
	if !ok {
		e = &engine{}
	}
	g := dres.Graph
	e.dres, e.prog, e.kern, e.trace = dres, dres.Program(), kern, trace
	e.limit, e.iters = maxplus.T(limit), iters
	e.maxLead = leadOf(g)
	// The ring starts at the depth the pooled engine's last run grew to,
	// within a lead of one iteration and leadOf's bound.
	d := g.MaxDelay()
	e.setDepth(ceilPow2(min(max(e.depth, d+2), d+1+e.maxLead)))
	n := g.NodeCount()
	e.stride, e.rowW = n, dres.RowWidth()
	// A slot is written before it is read (an instant is read only once
	// final), so neither the ring nor the rows need clearing.
	e.ring = resize(e.ring, n*e.depth)
	e.resetRows()
	e.next, e.done = zeroed(e.next, n), zeroed(e.done, n)
	e.tentative, e.fin = zeroed(e.tentative, n), zeroed(e.fin, e.depth)
	e.complete, e.synced = 0, 0
	e.work, e.stallLow = e.work[:0], -1

	e.recv = resize(e.recv, len(dres.Inputs))
	for i := range e.recv {
		e.recv[i] = reception{e: e, ib: &dres.Inputs[i], w: chanrt.NewParked(kern, "parked")}
	}
	e.outs = resize(e.outs, len(dres.Outputs))
	e.whole = true
	for j, ob := range dres.Outputs {
		e.outs[j] = emission{e: e, node: ob.Node, w: chanrt.NewParked(kern, "parked")}
		if out[j].Sink == nil {
			e.tentative[ob.Node] = true
			e.whole = false
		}
	}
	for _, c := range e.prog.SameIter() {
		e.whole = e.whole && c > 0
	}
	// Counts of iteration 0: only pre-origin references are resolved.
	e.cnt = resize(e.cnt, e.prog.Len())
	for i := range e.cnt {
		if e.cnt[i] = e.prog.Unresolved(i, 0, e.done); e.cnt[i] == 0 {
			e.work = append(e.work, int32(i))
		}
	}
	e.vals = resize(e.vals, n)
	e.nodes = dres.LabelledNodes(e.nodes[:0], skip)
	return e
}

// setDepth sets the ring's depth, a power of two.
func (e *engine) setDepth(depth int) {
	e.depth, e.mask = depth, depth-1
	e.lead = min(e.depth-e.dres.Graph.MaxDelay()-1, e.maxLead)
}

// resetRows sizes the row ring to the depth, with every slot empty.
func (e *engine) resetRows() {
	e.rows, e.rowK = resize(e.rows, e.rowW*e.depth), resize(e.rowK, e.depth)
	for i := range e.rowK {
		e.rowK[i] = -1
	}
}

// grow doubles the ring when its lead is short of leadOf's bound, and
// reports whether it did. Every node's last depth iterations move to
// their new slots, and so do the counts of the iterations in flight;
// rows are refilled on demand.
func (e *engine) grow() bool {
	if e.lead >= e.maxLead {
		return false
	}
	old := *e
	e.setDepth(2 * old.depth)
	n := e.stride
	e.ring = make([]maxplus.T, n*e.depth)
	for id := range n {
		for k := max(0, e.nextOf(tdg.NodeID(id))-old.depth); k < e.nextOf(tdg.NodeID(id)); k++ {
			*e.slot(tdg.NodeID(id), k) = old.ring[(k&old.mask)*n+id]
		}
	}
	e.resetRows()
	e.fin = make([]int32, e.depth)
	for k := e.complete; k < e.complete+old.depth; k++ {
		e.fin[k&e.mask] = old.fin[k&old.mask]
	}
	return true
}

// release parks a finished engine for the next run.
func (e *engine) release() {
	e.dres, e.prog, e.kern, e.trace = nil, nil, nil, nil
	clear(e.recv) // the events and processes belong to the finished kernel
	clear(e.outs)
	enginePool.Put(e)
}

func (e *engine) slot(id tdg.NodeID, k int) *maxplus.T {
	return &e.ring[(k&e.mask)*e.stride+int(id)]
}

// low is the oldest iteration a ring reader may still need: one not
// final at every node, or not yet taken by every emission.
func (e *engine) low() int {
	low := e.complete
	for i := range e.outs {
		low = min(low, e.outs[i].emitted)
	}
	return low
}

func (e *engine) nextOf(n tdg.NodeID) int { return max(e.next[n], e.complete) }
func (e *engine) doneOf(n tdg.NodeID) int { return max(e.done[n], e.complete) }

// sync brings next and done up to complete.
func (e *engine) sync() {
	if e.synced == e.complete {
		return
	}
	for i := range e.prog.Len() {
		id := e.prog.Node(i)
		e.next[id], e.done[id] = e.nextOf(id), e.doneOf(id)
	}
	e.synced = e.complete
}

// row returns iteration k's row from the ring, filling its slot on
// first use. Iterations in flight never share a slot, and the row is a
// pure function of k, so a refill is only ever repeated work.
func (e *engine) row(k int) ([]maxplus.T, error) {
	slot := k & e.mask
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

// build spawns the boundary processes of the input channels in and the
// output channels out (dres's bindings, in order) on the runtimes of
// chans, and computes what is final before any of them runs; an error
// there fails the kernel's run.
func (e *engine) build(a *model.Architecture, in, out []*model.Channel, chans map[*model.Channel]chanrt.RT) {
	for i, ch := range in {
		r := &e.recv[i]
		r.ch, r.rt = ch, chans[ch]
		e.kern.Spawn("Reception:"+ch.Name, r.run)
	}
	for j, ch := range out {
		o := &e.outs[j]
		o.ch, o.rt, o.src = ch, chans[ch], a.SourceOf(ch)
		e.kern.Spawn("Emission:"+ch.Name, o.run)
	}
	if err := e.advance(); err != nil {
		e.kern.Fail(err)
	}
}

// final marks node id's iteration k final and resolves the references
// its readers make to it.
func (e *engine) final(id tdg.NodeID, k int) {
	e.done[id] = k + 1
	for _, r := range e.prog.Readers(id) {
		if e.nextOf(r.Node) == k+int(r.Delay) {
			if e.cnt[r.I]--; e.cnt[r.I] == 0 {
				e.work = append(e.work, r.I)
			}
		}
	}
}

// finalNode marks program node id's iteration k final and completes
// every iteration that it leaves final at every node.
func (e *engine) finalNode(id tdg.NodeID, k int) error {
	e.final(id, k)
	e.fin[k&e.mask]++
	for e.fin[e.complete&e.mask] == int32(e.prog.Len()) {
		e.fin[e.complete&e.mask] = 0
		if err := e.completed(); err != nil {
			return err
		}
	}
	return nil
}

// completed moves past iteration complete, final at every node, and
// records it.
func (e *engine) completed() error {
	e.complete++
	if e.trace == nil {
		return nil
	}
	_, err := e.record(e.trace, e.complete-1)
	return err
}

// passReady reports whether iteration complete is ready as a whole: no
// node of it computed yet, every input arrived, and within the lead.
func (e *engine) passReady() bool {
	c := e.complete
	if !e.whole || c >= e.iters || e.fin[c&e.mask] != 0 {
		return false
	}
	for i := range e.dres.Inputs {
		if e.next[e.dres.Inputs[i].U] <= c {
			return false
		}
	}
	return e.room(c)
}

// room reports whether iteration k is within the lead of low, growing
// the ring if it must. When it cannot, the engine stalls until low
// moves.
func (e *engine) room(k int) bool {
	for k >= e.low()+e.lead {
		if !e.grow() {
			e.stallLow = e.low()
			return false
		}
	}
	return true
}

// pass computes iteration complete in one pass over the program. Every
// earlier iteration is final, so afterwards each node's next iteration
// waits only on its same-iteration references, less those to inputs
// that already arrived; the worklist held only nodes of the iteration
// just computed.
func (e *engine) pass() error {
	c := e.complete
	row, err := e.row(c)
	if err != nil {
		return err
	}
	e.prog.Pass(c, e.ring, e.depth, row)
	e.work = e.work[:0]
	copy(e.cnt, e.prog.SameIter())
	for i := range e.dres.Inputs {
		u := e.dres.Inputs[i].U
		if e.next[u] <= c+1 {
			continue
		}
		for _, r := range e.prog.Readers(u) {
			if r.Delay == 0 {
				if e.cnt[r.I]--; e.cnt[r.I] == 0 {
					e.work = append(e.work, r.I)
				}
			}
		}
	}
	return e.completed()
}

// compute computes the i-th program node's next iteration, whose count
// reached zero.
func (e *engine) compute(i int32) error {
	e.sync()
	id := e.prog.Node(int(i))
	k := e.next[id]
	if e.cnt[i] != 0 || k >= e.iters {
		return nil // stale: computed by a pass, or past the run
	}
	if !e.room(k) {
		return nil // ready again once low moves
	}
	row, err := e.row(k)
	if err != nil {
		return err
	}
	*e.slot(id, k) = e.prog.EvalAt(int(i), k, e.ring, e.depth, row)
	e.next[id] = k + 1
	if e.cnt[i] = e.prog.Unresolved(int(i), k+1, e.done); e.cnt[i] == 0 {
		e.work = append(e.work, i)
	}
	if e.tentative[id] {
		return nil // final at its confirmed transfer
	}
	return e.finalNode(id, k)
}

// advance computes every node instant whose references are final,
// records the iterations it completes, and fires each parked boundary
// process whose action became computable. It runs in zero simulation
// time after every arrival and every confirmed emission, the changes
// that make more instants final: computing a node costs no kernel
// event, which is the point of the method.
func (e *engine) advance() error {
	for {
		if e.passReady() {
			if err := e.pass(); err != nil {
				return err
			}
			continue
		}
		if len(e.work) == 0 {
			if e.stallLow < 0 || e.low() == e.stallLow {
				break
			}
			// low moved: retry every ready node the lead held back.
			e.stallLow = -1
			for i, c := range e.cnt {
				if c == 0 {
					e.work = append(e.work, int32(i))
				}
			}
			continue
		}
		i := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		if err := e.compute(i); err != nil {
			return err
		}
	}
	now := e.kern.Now()
	for i := range e.recv {
		r := &e.recv[i]
		if k := r.w.Waiting(); k >= 0 && e.gateReady(r.ib, k) {
			gate, err := e.gateValue(r.ib, k)
			if err != nil {
				return err
			}
			r.w.Fire(now, gate)
		}
	}
	for j := range e.outs {
		o := &e.outs[j]
		if k := o.w.Waiting(); k >= 0 && e.nextOf(o.node) > k {
			o.w.Fire(now, *e.slot(o.node, k))
		}
	}
	return nil
}

// gateReady reports whether every instant the k-th gate of ib references
// is final.
func (e *engine) gateReady(ib *derive.InputBinding, k int) bool {
	for _, a := range ib.Gate {
		if a.Delay <= k && e.doneOf(a.From) <= k-a.Delay {
			return false
		}
	}
	for _, sg := range ib.SameIterGate {
		if e.doneOf(e.dres.Inputs[sg.InputIndex].U) <= k {
			return false
		}
	}
	return true
}

// gateValue evaluates the k-th gate of ib; gateReady must hold.
func (e *engine) gateValue(ib *derive.InputBinding, k int) (maxplus.T, error) {
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

// run carries the reception forward until it waits: for the gate to be
// computable, for the gate's instant, or for the token.
func (r *reception) run(p *sim.Proc) {
	e := r.e
	for r.k < e.iters {
		switch r.phase {
		case due:
			if !e.gateReady(r.ib, r.k) {
				r.phase = parked
				r.w.Park(p, r.k) // advance fires it at the gate
				return
			}
			gate, err := e.gateValue(r.ib, r.k)
			if err != nil {
				p.Kernel().Fail(err)
				return
			}
			r.gate, r.phase = gate, acting
			if !gate.IsEpsilon() && sim.Time(gate) > p.Now() {
				p.At(sim.Time(gate))
				return
			}
		case parked:
			r.gate, r.phase = r.w.Fired(), acting
		default:
			if !r.arrive(p) {
				return
			}
		}
	}
}

// arrive takes the token of iteration k when the writer offers it and
// makes the arrival final. It reports whether the reception goes on:
// false when it waits for the writer or failed the run.
func (r *reception) arrive(p *sim.Proc) bool {
	e, k, u := r.e, r.k, r.ib.U
	_, wrote, ok := r.rt.Read(p)
	if !ok {
		return false
	}
	read, offered := maxplus.T(p.Now()), maxplus.T(wrote)
	// For FIFO inputs the boundary instant is the write instant, not the
	// read instant.
	arrival := read
	if r.ch.Kind == model.FIFO {
		arrival = offered
	}
	// The reference reads at the later of the reader's gate and the
	// writer's offer; a later read means the gate was computed late.
	if want := maxplus.Oplus(r.gate, offered); read > want {
		p.Kernel().Fail(fmt.Errorf("%w: %s read %d at %d ns, the reference reads at %d ns",
			ErrPipelined, r.ch.Name, k, read, want))
		return false
	}
	*e.slot(u, k) = arrival
	e.next[u] = k + 1
	e.final(u, k)
	if err := e.advance(); err != nil {
		p.Kernel().Fail(err)
		return false
	}
	r.k, r.phase = k+1, due
	return true
}

// run carries the emission forward until it waits: for y(k) to be
// computed, for its instant, or for the reader.
func (o *emission) run(p *sim.Proc) {
	e := o.e
	for o.emitted < e.iters {
		k := o.emitted
		switch o.phase {
		case due:
			if e.nextOf(o.node) <= k {
				o.phase = parked
				o.w.Park(p, k) // advance fires it at y(k)
				return
			}
			o.y, o.phase = *e.slot(o.node, k), acting
			if !o.y.IsEpsilon() && sim.Time(o.y) > p.Now() {
				p.At(sim.Time(o.y))
				return
			}
		case parked:
			o.y, o.phase = o.w.Fired(), acting
		case acting:
			if !o.y.IsEpsilon() && sim.Time(o.y) < p.Now() {
				p.Kernel().Fail(fmt.Errorf("%w: %s written %d at %d ns, the reference writes at %d ns",
					ErrPipelined, o.ch.Name, k, p.Now(), o.y))
				return
			}
			o.tok, o.phase = o.src.TokenAt(k), moving
		default:
			if !o.rt.Write(p, o.tok) {
				return
			}
			if !o.confirm(p, k) {
				return
			}
		}
	}
}

// confirm records the transfer of iteration k, made now, and reports
// whether the emission goes on: false when it failed the run.
func (o *emission) confirm(p *sim.Proc, k int) bool {
	e := o.e
	o.emitted, o.phase = k+1, due
	if e.tentative[o.node] {
		*e.slot(o.node, k) = maxplus.T(p.Now())
		if err := e.finalNode(o.node, k); err != nil {
			p.Kernel().Fail(err)
			return false
		}
	} else if e.stallLow < 0 {
		return true // nothing waits for low to move
	}
	if err := e.advance(); err != nil {
		p.Kernel().Fail(err)
		return false
	}
	return true
}

// record reconstructs the group's observable evolution of iteration k
// from the ring into trace (nil records nothing): internal instant
// labels (boundary channels are recorded by their real runtimes) and
// execution activities, except those past the time limit. Nodes not
// final for k — the run ended first — count as past the limit. It
// returns the latest instant or activity end of the iteration.
func (e *engine) record(trace *observe.Trace, k int) (maxplus.T, error) {
	row, err := e.row(k)
	if err != nil {
		return maxplus.Epsilon, err
	}
	for id := range e.vals {
		e.vals[id] = maxplus.Top
		if e.doneOf(tdg.NodeID(id)) > k {
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
	last := 0
	for _, d := range e.done {
		last = max(last, d)
	}
	for k := e.complete; k < last && e.trace != nil; k++ {
		if _, err := e.record(e.trace, k); err != nil {
			break
		}
	}
	t := e.kern.Stats().FinalTime
	if e.complete == 0 {
		return t
	}
	end, err := e.record(nil, e.complete-1)
	if err != nil {
		return t
	}
	return max(t, sim.Time(min(end, e.limit)))
}
