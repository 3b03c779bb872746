// Package tdg implements temporal dependency graphs, the oriented-graph
// form of the (max,+) evolution-instant equations used by the dynamic
// computation method (Section III-C of the paper).
//
// Each node corresponds to one evolution instant x_n(k); each arc carries
// a delay d (the arc references the source node's value at iteration k-d)
// and a weight (a duration, possibly varying with k through data-dependent
// execution times). Traversing the graph in topological order of its
// zero-delay arcs computes all instants of iteration k — the paper's
// ComputeInstant() action — in time linear in the number of arcs and with
// no simulation events.
package tdg

import (
	"fmt"
	"sort"

	"dyncomp/internal/maxplus"
)

// NodeID identifies a node within its graph.
type NodeID int

// NodeKind classifies evolution instants.
type NodeKind int

// Node kinds.
const (
	// Input nodes carry externally supplied instants u_i(k).
	Input NodeKind = iota
	// Intermediate nodes are internal evolution instants x_n(k).
	Intermediate
	// Output nodes are the instants y_j(k) re-emitted as simulation events.
	Output
	// Pad nodes are computationally active but semantically inert; they
	// exist to study the influence of graph size on ComputeInstant cost
	// (Fig. 5 of the paper).
	Pad
)

func (k NodeKind) String() string {
	switch k {
	case Input:
		return "input"
	case Intermediate:
		return "intermediate"
	case Output:
		return "output"
	case Pad:
		return "pad"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Weight describes an arc weight for evaluation and compilation: the
// identity e, a compile-time constant, or an entry of the iteration row.
// The zero value is the identity. Compile inlines identity and constant
// weights into the flat arc table; row weights read the row the
// program's bound Inputs fill once per iteration (see Program.Bind).
type Weight struct {
	c   maxplus.T
	row int32 // > 0: the weight is entry row-1 of the iteration row
}

// ConstWeight returns a weight with the same value at every iteration.
func ConstWeight(v maxplus.T) Weight { return Weight{c: v} }

// RowWeight returns the weight held by entry i of the iteration row.
func RowWeight(i int) Weight { return Weight{row: int32(i) + 1} }

// RowEntry returns the row entry of a row weight.
func (w Weight) RowEntry() (int, bool) { return int(w.row) - 1, w.row > 0 }

// IsIdentity reports whether the weight is e (adds nothing).
func (w Weight) IsIdentity() bool { return w.row == 0 && w.c == maxplus.E }

// Const returns the weight's value and true when it is iteration
// independent (identity or constant).
func (w Weight) Const() (maxplus.T, bool) { return w.c, w.row == 0 }

// At returns the weight at the iteration whose row is given; only row
// weights read it.
func (w Weight) At(row []maxplus.T) maxplus.T {
	if w.row > 0 {
		return row[w.row-1]
	}
	return w.c
}

// Apply returns src ⊗ w: src unchanged for the identity, the saturating
// (max,+) product otherwise (ε absorbing). row is the iteration's row,
// as for At.
func (w Weight) Apply(src maxplus.T, row []maxplus.T) maxplus.T {
	if w.IsIdentity() {
		return src
	}
	return maxplus.Otimes(src, w.At(row))
}

// Node is one evolution instant of the graph.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// Arc is a time dependency: the target instant is at least
// source(k-Delay) ⊗ Weight(k).
type Arc struct {
	From   NodeID
	Delay  int
	Weight Weight // zero value means the identity e (weight 0)
}

// Graph is a temporal dependency graph under construction or frozen for
// evaluation. Build it with AddInput/AddNode/AddArc and call Freeze once;
// evaluation requires a frozen graph.
type Graph struct {
	Name string

	nodes   []Node
	in      [][]Arc // incoming arcs per node
	inputs  []NodeID
	outputs []NodeID

	frozen   bool
	topo     []NodeID
	maxDelay int
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddInput declares an input node u_i(k). Input order defines the layout
// of the input vector passed to Evaluator.Step.
func (g *Graph) AddInput(name string) NodeID {
	id := g.addNode(name, Input)
	g.inputs = append(g.inputs, id)
	return id
}

// AddNode declares an intermediate, output or pad node. Declaring an
// Output node appends it to the output vector in declaration order.
func (g *Graph) AddNode(name string, kind NodeKind) NodeID {
	if kind == Input {
		panic("tdg: use AddInput for input nodes")
	}
	id := g.addNode(name, kind)
	if kind == Output {
		g.outputs = append(g.outputs, id)
	}
	return id
}

func (g *Graph) addNode(name string, kind NodeKind) NodeID {
	if g.frozen {
		panic("tdg: graph is frozen")
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind})
	g.in = append(g.in, nil)
	return id
}

// AddArc adds the dependency to(k) ≥ from(k-delay) ⊗ w(k). The zero
// Weight is the identity e.
func (g *Graph) AddArc(from, to NodeID, delay int, w Weight) {
	if g.frozen {
		panic("tdg: graph is frozen")
	}
	if !g.valid(from) || !g.valid(to) {
		panic(fmt.Sprintf("tdg: arc references unknown node (%d -> %d)", from, to))
	}
	if delay < 0 {
		panic(fmt.Sprintf("tdg: negative delay %d on arc %s -> %s", delay, g.nodes[from].Name, g.nodes[to].Name))
	}
	if g.nodes[to].Kind == Input {
		panic(fmt.Sprintf("tdg: arc into input node %s", g.nodes[to].Name))
	}
	g.in[to] = append(g.in[to], Arc{From: from, Delay: delay, Weight: w})
}

// AddPadChain appends n pad nodes chained from the given node with
// identity weights; they inflate ComputeInstant cost without changing any
// result (used by the Fig. 5 complexity experiment). It returns the last
// pad node.
func (g *Graph) AddPadChain(from NodeID, n int) NodeID {
	cur := from
	for i := 0; i < n; i++ {
		p := g.AddNode(fmt.Sprintf("pad%d_%d", from, i), Pad)
		g.AddArc(cur, p, 0, Weight{})
		cur = p
	}
	return cur
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// FilterIncoming removes the incoming arcs of a node for which keep
// returns false, returning how many were removed. It panics on a frozen
// graph.
func (g *Graph) FilterIncoming(to NodeID, keep func(Arc) bool) int {
	if g.frozen {
		panic("tdg: graph is frozen")
	}
	if !g.valid(to) {
		panic(fmt.Sprintf("tdg: unknown node %d", to))
	}
	kept := g.in[to][:0]
	removed := 0
	for _, a := range g.in[to] {
		if keep(a) {
			kept = append(kept, a)
		} else {
			removed++
		}
	}
	g.in[to] = kept
	return removed
}

// Nodes returns the nodes in ID order.
func (g *Graph) Nodes() []Node { return g.nodes }

// Inputs returns the input node IDs in declaration order.
func (g *Graph) Inputs() []NodeID { return g.inputs }

// Outputs returns the output node IDs in declaration order.
func (g *Graph) Outputs() []NodeID { return g.outputs }

// Incoming returns the incoming arcs of a node.
func (g *Graph) Incoming(id NodeID) []Arc { return g.in[id] }

// NodeByName returns the first node with the given name.
func (g *Graph) NodeByName(name string) (Node, bool) {
	for _, n := range g.nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// NodeCount returns the number of graph nodes (inputs, intermediates,
// outputs and pads).
func (g *Graph) NodeCount() int { return len(g.nodes) }

// NodeCountWithDelays counts nodes the way the paper's Table I does:
// every node plus one extra node per distinct delayed reference
// (node, delay>0), which the paper draws as separate x(k-d) nodes.
func (g *Graph) NodeCountWithDelays() int {
	type ref struct {
		from  NodeID
		delay int
	}
	seen := map[ref]bool{}
	for _, arcs := range g.in {
		for _, a := range arcs {
			if a.Delay > 0 {
				seen[ref{a.From, a.Delay}] = true
			}
		}
	}
	return len(g.nodes) + len(seen)
}

// MaxDelay returns the largest arc delay. Valid after Freeze.
func (g *Graph) MaxDelay() int { return g.maxDelay }

// Frozen reports whether Freeze has succeeded.
func (g *Graph) Frozen() bool { return g.frozen }

// Freeze validates the graph and fixes the evaluation order. It fails if
// a zero-delay dependency cycle exists (the instantaneous dependency
// matrix A(k,0) would not be nilpotent) or if the graph has no input or
// no output.
func (g *Graph) Freeze() error {
	if g.frozen {
		return nil
	}
	if len(g.inputs) == 0 {
		return fmt.Errorf("tdg: graph %q has no input node", g.Name)
	}
	if len(g.outputs) == 0 {
		return fmt.Errorf("tdg: graph %q has no output node", g.Name)
	}

	// Kahn's algorithm over zero-delay arcs.
	n := len(g.nodes)
	indeg := make([]int, n)
	maxDelay := 0
	for to, arcs := range g.in {
		for _, a := range arcs {
			if a.Delay == 0 {
				indeg[to]++
			} else if a.Delay > maxDelay {
				maxDelay = a.Delay
			}
		}
	}
	ready := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, NodeID(i))
		}
	}
	// Outgoing adjacency for zero-delay arcs.
	outs := make([][]NodeID, n)
	for to, arcs := range g.in {
		for _, a := range arcs {
			if a.Delay == 0 {
				outs[a.From] = append(outs[a.From], NodeID(to))
			}
		}
	}
	var topo []NodeID
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		topo = append(topo, id)
		for _, to := range outs[id] {
			indeg[to]--
			if indeg[to] == 0 {
				ready = append(ready, to)
			}
		}
	}
	if len(topo) != n {
		var stuck []string
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				stuck = append(stuck, g.nodes[i].Name)
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("tdg: graph %q has a zero-delay dependency cycle through %v", g.Name, stuck)
	}
	g.topo = topo
	g.maxDelay = maxDelay
	g.frozen = true
	return nil
}
