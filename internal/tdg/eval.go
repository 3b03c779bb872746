package tdg

import (
	"fmt"

	"dyncomp/internal/maxplus"
)

// Evaluator executes ComputeInstant() over a compiled program: each
// Step(k) computes every evolution instant of iteration k from the inputs
// u(k) and the bounded history of previous iterations.
//
// The evaluator keeps one ring buffer per node sized by the graph's
// maximum delay, so memory is O(nodes × (maxDelay+1)) regardless of how
// many iterations are computed, and one iteration row: the k-dependent
// arc weights of iteration k, filled once before the pass. Build one with
// Program.NewEvaluator: it runs the flat compiled program of Compile, a
// branch-light pass over packed arrays.
type Evaluator struct {
	prog   *Program
	k      int
	depth  int         // ring depth = maxDelay + 1
	ring   []maxplus.T // ring[(k mod depth)*N + node], N the node count
	outBuf []maxplus.T // reused by Step
	row    []maxplus.T // the row of iteration rowK (see Program)
	rowK   int         // -1: the row holds no iteration
}

// bindProgram points the evaluator at p's graph and row.
func (e *Evaluator) bindProgram(p *Program) {
	e.prog = p
	if n := p.rowWidth(); cap(e.row) < n {
		e.row = make([]maxplus.T, n)
	} else {
		e.row = e.row[:n]
	}
	e.rowK = -1
}

// Release returns the evaluator to its program's pool for reuse by a
// later Program.NewEvaluator (sweeps re-run one shape across many points;
// pooling makes those runs allocation-free). The evaluator must not be
// used after Release.
func (e *Evaluator) Release() { e.prog.release(e) }

// K returns the index of the next iteration to be computed.
func (e *Evaluator) K() int { return e.k }

// Graph returns the underlying graph.
func (e *Evaluator) Graph() *Graph { return e.prog.g }

// Step computes all evolution instants of the next iteration k from the
// input instants u (one per input node, in declaration order) and returns
// the output instants y(k). The returned slice is reused by the next Step.
// It first fills iteration k's row; an error filling it fails the step
// and leaves the evaluator at iteration k.
//
// Step performs no simulation work: it is the zero-simulation-time
// ComputeInstant() action of the paper.
func (e *Evaluator) Step(u []maxplus.T) ([]maxplus.T, error) {
	g := e.prog.g
	if len(u) != len(g.inputs) {
		return nil, fmt.Errorf("tdg: %d inputs supplied, graph %q has %d", len(u), g.Name, len(g.inputs))
	}
	k := e.k
	if err := e.fill(k); err != nil {
		return nil, err
	}
	slot := k % e.depth
	base := slot * len(g.nodes)
	for i, id := range g.inputs {
		e.ring[base+int(id)] = u[i]
	}
	e.prog.pass(e.ring, e.row, k, slot, e.depth)
	for i, id := range g.outputs {
		e.outBuf[i] = e.ring[base+int(id)]
	}
	e.k++
	return e.outBuf, nil
}

// fill makes the row hold iteration k. The row is a pure function of k,
// so a row filled ahead of Step (by Row) is reused.
func (e *Evaluator) fill(k int) error {
	if e.rowK == k {
		return nil
	}
	if err := e.prog.fillRow(k, e.row, 1); err != nil {
		e.rowK = -1
		return err
	}
	e.rowK = k
	return nil
}

// Row returns iteration k's row as the program's Inputs filled it
// (Width entries), filling it if the evaluator does not hold it. The
// slice is reused by the next fill.
func (e *Evaluator) Row(k int) ([]maxplus.T, error) {
	if err := e.fill(k); err != nil {
		return nil, err
	}
	return e.row, nil
}

// Value returns the instant of the given node at the most recently
// computed iteration. It panics if no iteration has been computed.
func (e *Evaluator) Value(id NodeID) maxplus.T {
	if e.k == 0 {
		panic("tdg: Value before first Step")
	}
	return e.ring[(e.k-1)%e.depth*len(e.prog.g.nodes)+int(id)]
}

// ValuesInto copies the instants of all nodes at the most recently
// computed iteration into dst (which must have NodeCount entries), in node
// ID order.
func (e *Evaluator) ValuesInto(dst []maxplus.T) {
	if e.k == 0 {
		panic("tdg: ValuesInto before first Step")
	}
	n := len(e.prog.g.nodes)
	if len(dst) != n {
		panic(fmt.Sprintf("tdg: ValuesInto dst size %d, want %d", len(dst), n))
	}
	copy(dst, e.ring[(e.k-1)%e.depth*n:])
}

// Reset rewinds the evaluator to iteration zero and clears all history.
func (e *Evaluator) Reset() {
	e.k = 0
	e.rowK = -1
	for i := range e.ring {
		e.ring[i] = maxplus.Epsilon
	}
}
