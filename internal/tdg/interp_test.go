package tdg

import (
	"fmt"

	"dyncomp/internal/maxplus"
)

// Interpreter evaluates a program's graph by walking its arc lists in
// topological order: the reference semantics the compiled passes must
// match bit-exactly. It is test code, the oracle of the evaluator tests
// and of the "interpreted" benchmark rows. Row, Value,
// ValuesInto, K and Reset are the embedded Evaluator's; only Step
// differs.
type Interpreter struct{ *Evaluator }

// NewInterpreter returns an interpreting evaluator over the program's
// graph that reads the program's row.
func (p *Program) NewInterpreter() *Interpreter {
	return &Interpreter{p.NewEvaluator()}
}

// Step computes iteration k as Evaluator.Step does, through
// interpretPass instead of the compiled pass.
func (e *Interpreter) Step(u []maxplus.T) ([]maxplus.T, error) {
	g := e.prog.g
	if len(u) != len(g.inputs) {
		return nil, fmt.Errorf("tdg: %d inputs supplied, graph %q has %d", len(u), g.Name, len(g.inputs))
	}
	k := e.k
	if err := e.fill(k); err != nil {
		return nil, err
	}
	for i, id := range g.inputs {
		e.ring[e.at(id, k)] = u[i]
	}
	e.interpretPass(k)
	for i, id := range g.outputs {
		e.outBuf[i] = e.ring[e.at(id, k)]
	}
	e.k++
	return e.outBuf, nil
}

// at is the ring index of node id's instant of iteration k.
func (e *Interpreter) at(id NodeID, k int) int {
	return k%e.depth*len(e.prog.g.nodes) + int(id)
}

// interpretPass computes every non-input instant of iteration k by
// walking the graph's arc lists.
func (e *Interpreter) interpretPass(k int) {
	g := e.prog.g
	row := e.row
	for _, id := range g.topo {
		n := g.nodes[id]
		if n.Kind == Input {
			continue
		}
		acc := maxplus.Epsilon
		for _, a := range g.in[id] {
			if a.Delay > k {
				continue // references an iteration before the origin: ε
			}
			src := e.ring[e.at(a.From, k-a.Delay)]
			if src == maxplus.Epsilon {
				continue
			}
			v := a.Weight.Apply(src, row)
			if v > acc {
				acc = v
			}
		}
		e.ring[e.at(id, k)] = acc
	}
}
