package derive

import (
	"fmt"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/tdg"
)

// MatrixForm is the linear (max,+) representation of a derived temporal
// dependency graph — the paper's equations (7)-(10):
//
//	X(k) = A(k,0)⊗X(k) ⊕ ... ⊕ A(k,a)⊗X(k-a) ⊕ B(k,0)⊗U(k) ⊕ ...
//	Y(k) = C(k,0)⊗X(k)
//
// X collects every non-input node in node-ID order, U the input nodes in
// declaration order, Y the output nodes in declaration order. The matrix
// entries are evaluated per iteration, so data-dependent durations are
// preserved.
type MatrixForm struct {
	res  *Result
	row  []maxplus.T // iteration rowK's row
	rowK int
	// xIndex maps node IDs to X positions; -1 for input nodes.
	xIndex     []int
	xNodes     []tdg.NodeID
	uIndex     []int // node ID -> U position; -1 otherwise
	nx, nu, ny int
	maxDelay   int
}

// NewMatrixForm builds the matrix view of a derivation result.
func NewMatrixForm(res *Result) (*MatrixForm, error) {
	g := res.Graph
	if !g.Frozen() {
		return nil, fmt.Errorf("derive: graph %q is not frozen", g.Name)
	}
	m := &MatrixForm{
		res:      res,
		row:      make([]maxplus.T, res.RowWidth()),
		rowK:     -1,
		xIndex:   make([]int, g.NodeCount()),
		uIndex:   make([]int, g.NodeCount()),
		maxDelay: g.MaxDelay(),
	}
	for i := range m.xIndex {
		m.xIndex[i] = -1
		m.uIndex[i] = -1
	}
	for i, id := range g.Inputs() {
		m.uIndex[id] = i
	}
	for _, n := range g.Nodes() {
		if n.Kind == tdg.Input {
			continue
		}
		m.xIndex[n.ID] = m.nx
		m.xNodes = append(m.xNodes, n.ID)
		m.nx++
	}
	m.nu = len(g.Inputs())
	m.ny = len(g.Outputs())
	if m.nx == 0 || m.nu == 0 || m.ny == 0 {
		return nil, fmt.Errorf("derive: degenerate matrix form (nx=%d nu=%d ny=%d)", m.nx, m.nu, m.ny)
	}
	return m, nil
}

// Dimensions returns (nx, nu, ny, maxDelay).
func (m *MatrixForm) Dimensions() (nx, nu, ny, maxDelay int) {
	return m.nx, m.nu, m.ny, m.maxDelay
}

// A returns the intermediate dependency matrix A(k, i).
func (m *MatrixForm) A(k, i int) *maxplus.Matrix {
	out := maxplus.NewMatrix(m.nx, m.nx)
	g := m.res.Graph
	for _, n := range g.Nodes() {
		to := m.xIndex[n.ID]
		if to < 0 {
			continue
		}
		for _, a := range g.Incoming(n.ID) {
			from := m.xIndex[a.From]
			if from < 0 || a.Delay != i {
				continue
			}
			out.Set(to, from, maxplus.Oplus(out.At(to, from), m.weightAt(a, k)))
		}
	}
	return out
}

// B returns the input dependency matrix B(k, j).
func (m *MatrixForm) B(k, j int) *maxplus.Matrix {
	out := maxplus.NewMatrix(m.nx, m.nu)
	g := m.res.Graph
	for _, n := range g.Nodes() {
		to := m.xIndex[n.ID]
		if to < 0 {
			continue
		}
		for _, a := range g.Incoming(n.ID) {
			from := m.uIndex[a.From]
			if from < 0 || a.Delay != j {
				continue
			}
			out.Set(to, from, maxplus.Oplus(out.At(to, from), m.weightAt(a, k)))
		}
	}
	return out
}

// C returns the output selection matrix C(k, l); only l = 0 is non-ε
// (outputs are instants of the current iteration).
func (m *MatrixForm) C(_, l int) *maxplus.Matrix {
	out := maxplus.NewMatrix(m.ny, m.nx)
	if l != 0 {
		return out
	}
	for j, id := range m.res.Graph.Outputs() {
		out.Set(j, m.xIndex[id], maxplus.E)
	}
	return out
}

// D returns the direct feedthrough matrix D(k, m): all ε (outputs never
// bypass the intermediate instants in derived graphs).
func (m *MatrixForm) D(_, _ int) *maxplus.Matrix {
	return maxplus.NewMatrix(m.ny, m.nu)
}

// weightAt returns an arc's weight at iteration k. A MatrixForm is an
// analysis view, not an engine: a row that fails to fill (a duration out
// of range) panics.
func (m *MatrixForm) weightAt(a tdg.Arc, k int) maxplus.T {
	if m.rowK != k {
		if err := m.res.FillRow(k, m.row); err != nil {
			panic(fmt.Sprintf("derive: matrix form: %v", err))
		}
		m.rowK = k
	}
	return a.Weight.At(m.row)
}

// System instantiates the maxplus recurrence solver over this matrix
// form. Stepping it yields exactly the instants of the graph evaluator.
func (m *MatrixForm) System() (*maxplus.System, error) {
	return maxplus.NewSystem(m.nx, m.nu, m.ny, m.maxDelay, 0, m)
}

// XNodes returns the node IDs backing each X vector position.
func (m *MatrixForm) XNodes() []tdg.NodeID { return m.xNodes }

// ThroughputBound computes the maximum cycle mean λ of the architecture's
// autonomous dynamics using the durations of iteration k: the matrix
// Â = A0* ⊗ A1 propagates X(k-1) to X(k) when the environment is never
// the bottleneck, and λ(Â) is the asymptotic inter-iteration period
// (inverse throughput). For constant durations this is exact steady-state
// analysis (Baccelli et al. 1992); for data-dependent durations it is the
// bound at iteration k. The second result is false when the system is
// acyclic (throughput limited only by the environment).
func (m *MatrixForm) ThroughputBound(k int) (lambda float64, ok bool) {
	a0 := m.A(k, 0)
	ahat := a0.Star().Otimes(m.A(k, 1))
	for i := 2; i <= m.maxDelay; i++ {
		// Higher delays fold conservatively into the one-step matrix by
		// distributing their weight over i steps; exact for the common
		// maxDelay == capacity cases only when capacities are 1, so pull
		// them in at full weight (an upper bound on λ).
		ahat = ahat.Oplus(a0.Star().Otimes(m.A(k, i)))
	}
	return maxplus.MaxCycleMean(ahat)
}
