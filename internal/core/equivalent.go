// Package core implements the paper's contribution: the equivalent model.
//
// An equivalent model replaces all architecture processes with two kinds
// of lightweight simulation processes (Fig. 4 of the paper):
//
//   - Reception processes accept input tokens at the architecture
//     boundary. Whenever an iteration's inputs are complete, they perform
//     the ComputeInstant() action — evaluating the temporal dependency
//     graph in zero simulation time — which yields every internal
//     evolution instant and the output instants y(k).
//   - Emission processes replay the stored output instants: each waits
//     until simulation time reaches y(k) and only then emits the output
//     token.
//
// A boundary process whose next action is not yet computable (a
// reception whose gate needs iteration k-1 or another input's k-th
// arrival, an emission whose y(k) is not computed) parks on an event of
// its own. The reception that completes what it waits for fires that
// event once, at the instant the action is due, and wakes no other
// process. Only boundary events remain visible to the simulation
// kernel; all internal events are saved. Because the internal instants
// are still computed, resource usage is reconstructed exactly on a
// local observation time (Fig. 2b) without involving the simulator.
//
// Model.Compute goes one step further and drops the kernel: it takes the
// input instants straight from the source schedules and computes every
// iteration, boundary included, from the graph (the "adaptive" engine).
// RunBatch computes many parameter points of one shape that way, with
// one batched graph evaluation per iteration for all of them. Every
// path reconstructs the observable evolution through
// derive.Result.Record.
package core

import (
	"fmt"
	"sync"

	"dyncomp/internal/chanrt"
	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/tdg"
)

// Options configures an equivalent-model run.
type Options struct {
	// Trace, when non-nil, records the computed evolution instants and the
	// reconstructed resource activity, bit-exact against the reference
	// executor.
	Trace *observe.Trace
	// Limit bounds simulation time; zero means run to completion.
	Limit sim.Time
	// IterLimit, when positive, bounds the evolution to iterations
	// [0, IterLimit): every source stops after token IterLimit-1.
	IterLimit int
}

// Result reports a completed run.
type Result struct {
	Stats      sim.Stats
	Trace      *observe.Trace
	Iterations int
}

// Model is a runnable equivalent model built from a derived temporal
// dependency graph.
//
// A Model is reusable: Run may be called any number of times
// (sequentially), each call simulating from scratch with a fresh kernel
// and evaluator. The iteration count is re-read from the architecture's
// sources on every Run, so a sweep can re-run one derived structure
// across parameter points without re-deriving. Engine state (the
// arrival and output buffers) is pooled across Run calls, and compiled
// evaluators recycle their history rings through the program's shared
// pool, so repeated runs of one shape allocate nothing per iteration.
type Model struct {
	res *derive.Result
}

// New builds an equivalent model from a derivation result. All sources of
// the architecture must produce the same token count (single-rate
// evolution), and every output must drain into an environment sink (the
// abstraction boundary of the paper's experiments).
func New(res *derive.Result) (*Model, error) {
	m := &Model{res: res}
	if _, err := m.iterations(); err != nil {
		return nil, err
	}
	return m, nil
}

// iterations resolves the number of iterations to simulate from the
// architecture's sources, which must agree on one token count.
func (m *Model) iterations() (int, error) { return iterations(m.res) }

func iterations(res *derive.Result) (int, error) {
	if len(res.Inputs) == 0 {
		return 0, fmt.Errorf("core: architecture %q has no inputs", res.Arch.Name)
	}
	count := res.Inputs[0].Source.Count
	for _, ib := range res.Inputs[1:] {
		if ib.Source.Count != count {
			return 0, fmt.Errorf("core: sources %q and %q produce different token counts (%d vs %d)",
				res.Inputs[0].Source.Name, ib.Source.Name, count, ib.Source.Count)
		}
	}
	return count, nil
}

// Run simulates the equivalent model.
func (m *Model) Run(opts Options) (*Result, error) {
	limit := opts.Limit
	if limit <= 0 {
		limit = sim.Forever
	}
	iter, err := m.iterations()
	if err != nil {
		return nil, err
	}
	if opts.IterLimit > 0 && opts.IterLimit < iter {
		iter = opts.IterLimit
	}
	k := sim.New()
	ev := m.res.Program().NewEvaluator()
	eng := engineFor(m.res, iter, limit, k, ev, opts.Trace)
	eng.build()
	runErr := k.Run(limit)
	res := &Result{Stats: k.Stats(), Trace: opts.Trace, Iterations: ev.K()}
	res.Stats.FinalTime = eng.finalTime()
	if runErr == nil {
		eng.recordPending()
	}
	// Recycle also on failure: Kernel.Run has shut every process down, so
	// the engine state and the evaluator ring are safe to pool either way.
	ev.Release()
	recycle(eng)
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// enginePool recycles engine state (arrival and output buffers) across
// runs of any model; engineFor resizes the buffers to the architecture
// at hand.
var enginePool sync.Pool

// engineFor prepares the running state of one simulation, reusing a
// pooled engine (with its grown buffers) when one is available.
func engineFor(res *derive.Result, iter int, limit sim.Time, k *sim.Kernel, ev *tdg.Evaluator, trace *observe.Trace) *engine {
	eng, ok := enginePool.Get().(*engine)
	if !ok {
		eng = &engine{}
	}
	eng.res = res
	eng.iter = iter
	eng.limit = maxplus.T(limit)
	eng.kernel = k
	eng.eval = ev
	eng.trace = trace
	eng.pending = 0
	if cap(eng.arrived) < len(res.Inputs) {
		eng.arrived = make([]int, len(res.Inputs))
		eng.inputs = make([]maxplus.T, len(res.Inputs))
	} else {
		eng.arrived = eng.arrived[:len(res.Inputs)]
		eng.inputs = eng.inputs[:len(res.Inputs)]
	}
	for i := range eng.arrived {
		eng.arrived[i] = 0
	}
	if cap(eng.outputs) < len(res.Outputs) {
		eng.outputs = make([][]maxplus.T, len(res.Outputs))
	} else {
		eng.outputs = eng.outputs[:len(res.Outputs)]
	}
	for j := range eng.outputs {
		// Preallocate the known iteration count so the steady-state loop
		// appends without growing.
		if cap(eng.outputs[j]) < iter {
			eng.outputs[j] = make([]maxplus.T, 0, iter)
		} else {
			eng.outputs[j] = eng.outputs[j][:0]
		}
	}
	eng.recv = parkedFor(eng.recv, k, len(res.Inputs))
	eng.emit = parkedFor(eng.emit, k, len(res.Outputs))
	// The input runtimes record their own instants.
	var inLabels []string
	for _, ib := range res.Inputs {
		inLabels = append(inLabels, chanrt.Labels(ib.Channel)...)
	}
	eng.nodes = res.LabelledNodes(eng.nodes[:0], inLabels)
	if cap(eng.vals) < res.Graph.NodeCount() {
		eng.vals = make([]maxplus.T, res.Graph.NodeCount())
	} else {
		eng.vals = eng.vals[:res.Graph.NodeCount()]
	}
	return eng
}

// finalTime returns the simulated time the run reached: the kernel's,
// or later, the latest instant or activity end computed within the
// limit. The kernel sees only boundary events, while the reference
// executor also simulates an internal execution or transfer that ends
// after the last of them. Instants grow with k, so the last computed
// iteration holds the latest.
func (e *engine) finalTime() sim.Time {
	t := e.kernel.Stats().FinalTime
	if e.eval.K() == 0 {
		return t
	}
	k := e.eval.K() - 1
	row, err := e.eval.Row(k)
	if err != nil {
		return t // the run failed filling it
	}
	e.eval.ValuesInto(e.vals)
	end, _ := e.res.Record(nil, e.nodes, e.vals, row, k, e.limit)
	return max(t, sim.Time(min(end, e.limit)))
}

// recordPending records the iteration the run left incomplete: some of
// its inputs arrived within the limit, the others did not. The
// reference executor runs what depends only on the arrived ones, so the
// missing inputs enter at ⊤ and Record leaves everything that needs
// them unrecorded, past any limit.
func (e *engine) recordPending() {
	if e.trace == nil || e.pending == 0 {
		return
	}
	k := e.eval.K()
	for i, n := range e.arrived {
		if n <= k {
			e.inputs[i] = maxplus.Top
		}
	}
	if _, err := e.eval.Step(e.inputs); err != nil {
		return // the row failed to fill; nothing of k is computable
	}
	row, _ := e.eval.Row(k) // Step filled it
	e.eval.ValuesInto(e.vals)
	e.res.Record(e.trace, e.nodes, e.vals, row, k, e.limit)
}

// recycle parks a finished engine's state for the next run. The caller
// releases the evaluator itself.
func recycle(eng *engine) {
	eng.res, eng.eval, eng.trace, eng.kernel = nil, nil, nil, nil
	clear(eng.recv) // the events belong to the finished kernel
	clear(eng.emit)
	enginePool.Put(eng)
}

// parkedFor resizes ws to n processes, reusing its storage, each with a
// fresh event of kernel k and nothing parked.
func parkedFor(ws []chanrt.Parked, k *sim.Kernel, n int) []chanrt.Parked {
	if cap(ws) < n {
		ws = make([]chanrt.Parked, n)
	}
	ws = ws[:n]
	for i := range ws {
		ws[i] = chanrt.NewParked(k, "parked")
	}
	return ws
}

// engine is the running state of one equivalent-model simulation.
type engine struct {
	res    *derive.Result
	iter   int       // iterations to simulate (source token count)
	limit  maxplus.T // simulated-time bound; later instants go unrecorded
	kernel *sim.Kernel
	eval   *tdg.Evaluator
	trace  *observe.Trace
	vals   []maxplus.T
	nodes  []derive.Labelled // the instants Record reconstructs

	// arrivals per input: arrived[i] counts delivered iterations; the
	// engine steps iteration k once every input has arrived[i] > k.
	arrived []int
	inputs  []maxplus.T // arrival instants of the pending iteration
	pending int         // number of inputs that delivered the pending iteration

	outputs [][]maxplus.T // computed y(k) per output, grown by Step

	recv []chanrt.Parked // per input
	emit []chanrt.Parked // per output
}

func (e *engine) build() {
	res := e.res
	arch := res.Arch

	// Boundary channels keep their real runtimes. The input runtimes
	// record their own instants, as in the reference executor: a source
	// write the time limit reaches is recorded even when its iteration is
	// never computed. Every other instant comes from the computed values.
	inChans := make([]chanrt.RT, len(res.Inputs))
	for i, ib := range res.Inputs {
		inChans[i] = chanrt.New(e.kernel, ib.Channel, e.trace)
	}
	outChans := make([]chanrt.RT, len(res.Outputs))
	for j, ob := range res.Outputs {
		outChans[j] = chanrt.New(e.kernel, ob.Channel, nil)
	}

	// Environment sources, exactly as in the reference executor.
	for i, ib := range res.Inputs {
		src := ib.Source
		ch := inChans[i]
		count := src.Count
		if count > e.iter {
			count = e.iter // Options.IterLimit stops sources early
		}
		e.kernel.Spawn(src.Name, func(p *sim.Proc) {
			for k := 0; k < count; k++ {
				u := src.Schedule(k)
				if u.IsEpsilon() {
					panic(fmt.Sprintf("core: source %q schedule(%d) is ε", src.Name, k))
				}
				p.WaitUntil(sim.Time(u))
				ch.Write(p, src.TokenAt(k))
			}
		})
	}

	// Reception processes: gate, accept, compute.
	for i := range res.Inputs {
		idx := i
		ib := res.Inputs[i]
		ch := inChans[i]
		e.kernel.Spawn("Reception:"+ib.Channel.Name, func(p *sim.Proc) {
			e.runReception(p, idx, ib, ch)
		})
	}

	// Emission processes replay stored output instants.
	for j := range res.Outputs {
		w := &e.emit[j]
		ob := res.Outputs[j]
		ch := outChans[j]
		src := arch.SourceOf(ob.Channel)
		e.kernel.Spawn("Emission:"+ob.Channel.Name, func(p *sim.Proc) {
			for k := 0; k < e.iter; k++ {
				var y maxplus.T
				if outs := e.outputs[j]; len(outs) > k {
					y = outs[k]
					if y != maxplus.Epsilon {
						p.WaitUntil(sim.Time(y))
					}
				} else {
					y = w.Wait(p, k) // deliver fires it at y(k)
				}
				if y == maxplus.Epsilon {
					continue // this iteration produces no output yet
				}
				ch.Write(p, src.TokenAt(k))
			}
		})
	}

	// Environment sinks.
	for j, ob := range res.Outputs {
		ch := outChans[j]
		e.kernel.Spawn(ob.Sink.Name, func(p *sim.Proc) {
			for {
				ch.Read(p)
			}
		})
	}
}

// runReception is the Reception process of one input: for each iteration
// it evaluates the readiness gate — from already-computed history plus,
// for same-iteration terms, from other inputs' observed arrivals —
// accepts the token (the rendezvous realizes max(u(k), gate)), and
// triggers ComputeInstant when the iteration's inputs are complete.
func (e *engine) runReception(p *sim.Proc, idx int, ib derive.InputBinding, ch chanrt.RT) {
	fifo, _ := ch.(*chanrt.FIFO)
	w := &e.recv[idx]
	for k := 0; k < e.iter; k++ {
		// The delayed gate needs iteration k-1 fully computed; the
		// same-iteration terms need the referenced inputs' k-th arrivals.
		if e.gateReady(ib, k) {
			gate, err := e.gateValue(ib, k)
			if err != nil {
				p.Kernel().Fail(err)
				return
			}
			if !gate.IsEpsilon() && sim.Time(gate) > p.Now() {
				p.WaitUntil(sim.Time(gate))
			}
		} else {
			w.Wait(p, k) // deliver fires it at the gate
		}
		ch.Read(p)
		arrival := maxplus.T(p.Now())
		if fifo != nil {
			// For FIFO inputs the boundary instant is the write instant,
			// not the read instant.
			arrival = fifo.WriteInstant(k)
		}
		if err := e.deliver(k, idx, arrival); err != nil {
			p.Kernel().Fail(err)
			return
		}
	}
}

// gateReady reports whether everything the k-th gate of ib depends on has
// been computed or observed.
func (e *engine) gateReady(ib derive.InputBinding, k int) bool {
	if e.eval.K() < k {
		return false
	}
	for _, sg := range ib.SameIterGate {
		if e.arrived[sg.InputIndex] <= k {
			return false
		}
	}
	return true
}

// gateValue evaluates the k-th gate of ib; gateReady must hold.
func (e *engine) gateValue(ib derive.InputBinding, k int) (maxplus.T, error) {
	gate, err := e.eval.PeekDelayed(ib.Gate, k)
	if err != nil || len(ib.SameIterGate) == 0 {
		return gate, err
	}
	row, err := e.eval.Row(k) // PeekDelayed filled it
	if err != nil {
		return maxplus.Epsilon, err
	}
	for _, sg := range ib.SameIterGate {
		gate = maxplus.Oplus(gate, sg.Weight.Apply(e.inputs[sg.InputIndex], row))
	}
	return gate, nil
}

// deliver records one input arrival and steps the evaluator once the
// iteration is complete. The step happens in zero simulation time; an
// error filling the iteration's row fails it.
func (e *engine) deliver(k, idx int, arrival maxplus.T) error {
	e.inputs[idx] = arrival
	e.arrived[idx] = k + 1
	e.pending++
	if e.pending < len(e.inputs) {
		return e.wake() // another reception may gate on this arrival
	}
	e.pending = 0

	y, err := e.eval.Step(e.inputs)
	if err != nil {
		return err
	}
	for j := range e.outputs {
		e.outputs[j] = append(e.outputs[j], y[j])
	}
	if e.trace != nil {
		row, err := e.eval.Row(k)
		if err != nil {
			return err
		}
		e.eval.ValuesInto(e.vals)
		e.res.Record(e.trace, e.nodes, e.vals, row, k, e.limit)
	}
	return e.wake()
}

// wake fires every parked boundary process whose action became
// computable: a reception at its gate, an emission at its y(k).
func (e *engine) wake() error {
	now := e.kernel.Now()
	for i := range e.recv {
		w := &e.recv[i]
		ib := e.res.Inputs[i]
		k := w.Waiting()
		if k < 0 || !e.gateReady(ib, k) {
			continue
		}
		gate, err := e.gateValue(ib, k)
		if err != nil {
			return err
		}
		w.Fire(now, gate)
	}
	for j := range e.emit {
		w := &e.emit[j]
		if k := w.Waiting(); k >= 0 && len(e.outputs[j]) > k {
			w.Fire(now, e.outputs[j][k])
		}
	}
	return nil
}
