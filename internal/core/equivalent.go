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
// Only boundary events remain visible to the simulation kernel; all
// internal events are saved. Because the internal instants are still
// computed, resource usage is reconstructed exactly on a local
// observation time (Fig. 2b) without involving the simulator.
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

// stepper is the ComputeInstant surface the engine drives. The scalar
// tdg.Evaluator satisfies it directly; a batched run hands each lane a
// view onto one shared tdg.BatchEvaluator instead (see RunBatch). The
// engine is oblivious to which one it got — that indirection is the
// whole batch refactor at this layer.
type stepper interface {
	K() int
	Step(u []maxplus.T) ([]maxplus.T, error)
	PeekDelayed(arcs []tdg.Arc, k int) (maxplus.T, error)
	ValuesInto(dst []maxplus.T)
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
// at hand. One pool serves scalar runs and every lane of a batched run.
var enginePool sync.Pool

// engineFor prepares the running state of one simulation, reusing a
// pooled engine (with its grown buffers) when one is available.
func engineFor(res *derive.Result, iter int, limit sim.Time, k *sim.Kernel, ev stepper, trace *observe.Trace) *engine {
	eng, ok := enginePool.Get().(*engine)
	if !ok {
		eng = &engine{inLabels: map[string]bool{}}
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
	eng.stepped = k.NewEvent("stepped")
	eng.emitted = k.NewEvent("emitted")
	if trace != nil {
		clear(eng.inLabels)
		for _, ib := range res.Inputs {
			for _, label := range chanrt.Labels(ib.Channel) {
				eng.inLabels[label] = true
			}
		}
		if cap(eng.vals) < res.Graph.NodeCount() {
			eng.vals = make([]maxplus.T, res.Graph.NodeCount())
		} else {
			eng.vals = eng.vals[:res.Graph.NodeCount()]
		}
	}
	return eng
}

// recycle parks a finished engine's state for the next run. The caller
// releases the evaluator itself — a batched run retires its lanes
// individually but releases the shared batch evaluator exactly once.
func recycle(eng *engine) {
	eng.res, eng.eval, eng.trace = nil, nil, nil
	eng.kernel, eng.stepped, eng.emitted = nil, nil, nil
	enginePool.Put(eng)
}

// engine is the running state of one equivalent-model simulation.
type engine struct {
	res      *derive.Result
	iter     int       // iterations to simulate (source token count)
	limit    maxplus.T // simulated-time bound; later instants go unrecorded
	kernel   *sim.Kernel
	eval     stepper
	trace    *observe.Trace
	vals     []maxplus.T
	inLabels map[string]bool // recorded by the input runtimes, not by record

	// arrivals per input: arrived[i] counts delivered iterations; the
	// engine steps iteration k once every input has arrived[i] > k.
	arrived []int
	inputs  []maxplus.T // arrival instants of the pending iteration
	pending int         // number of inputs that delivered the pending iteration

	outputs [][]maxplus.T // computed y(k) per output, grown by Step
	stepped *sim.Event    // broadcast after each arrival and ComputeInstant
	emitted *sim.Event    // broadcast after each computed output batch
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
				tok := src.Tokens(k)
				tok.K = k
				ch.Write(p, tok)
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
		idx := j
		ob := res.Outputs[j]
		ch := outChans[j]
		e.kernel.Spawn("Emission:"+ob.Channel.Name, func(p *sim.Proc) {
			for k := 0; k < e.iter; k++ {
				for len(e.outputs[idx]) <= k {
					p.WaitEvent(e.emitted)
				}
				y := e.outputs[idx][k]
				if y == maxplus.Epsilon {
					continue // this iteration produces no output yet
				}
				p.WaitUntil(sim.Time(y))
				tok := arch.TokenOf(ob.Channel, k)
				ch.Write(p, tok)
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
	for k := 0; k < e.iter; k++ {
		// The delayed gate needs iteration k-1 fully computed; the
		// same-iteration terms need the referenced inputs' k-th arrivals.
		for !e.gateReady(ib, k) {
			p.WaitEvent(e.stepped)
		}
		gate, err := e.eval.PeekDelayed(ib.Gate, k)
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		for _, sg := range ib.SameIterGate {
			v := sg.Weight.Apply(e.inputs[sg.InputIndex], k)
			gate = maxplus.Oplus(gate, v)
		}
		if !gate.IsEpsilon() && sim.Time(gate) > p.Now() {
			p.WaitUntil(sim.Time(gate))
		}
		ch.Read(p)
		arrival := maxplus.T(p.Now())
		if fifo != nil {
			// For FIFO inputs the boundary instant is the write instant,
			// not the read instant.
			arrival = fifo.WriteInstant(k)
		}
		e.deliver(k, idx, arrival)
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

// deliver records one input arrival and steps the evaluator once the
// iteration is complete. The step happens in zero simulation time.
func (e *engine) deliver(k, idx int, arrival maxplus.T) {
	e.inputs[idx] = arrival
	e.arrived[idx] = k + 1
	e.pending++
	if e.pending < len(e.inputs) {
		e.stepped.Notify() // other receptions may gate on this arrival
		return
	}
	e.pending = 0

	y, err := e.eval.Step(e.inputs)
	if err != nil {
		panic(fmt.Sprintf("core: ComputeInstant failed: %v", err))
	}
	for j := range e.outputs {
		e.outputs[j] = append(e.outputs[j], y[j])
	}
	if e.trace != nil {
		e.record(k)
	}
	e.stepped.Notify()
	e.emitted.Notify()
}

// record reconstructs the observable evolution of iteration k from the
// computed instants: every labelled instant and every execution activity,
// on the local observation time (no simulator involvement). Instants and
// activities past the time limit stay unrecorded — the reference
// executor's kernel stops before it reaches them.
func (e *engine) record(k int) {
	e.eval.ValuesInto(e.vals)
	g := e.res.Graph
	for _, n := range g.Nodes() {
		label, ok := e.res.Labels[n.ID]
		if !ok || e.inLabels[label] || e.vals[n.ID] > e.limit {
			continue
		}
		e.trace.RecordInstant(label, e.vals[n.ID])
	}
	for _, pr := range e.res.Probes {
		start := pr.Start(e.vals[pr.Base], k)
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
