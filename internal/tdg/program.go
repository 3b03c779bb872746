package tdg

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dyncomp/internal/maxplus"
)

// Program is a frozen graph compiled into a flat evaluation program: the
// topological node order and every arc are packed into contiguous arrays
// with ring-slot offsets precomputed, and iteration-independent weights
// (the identity and constants) are inlined into the arc table. Every
// k-dependent weight is an index into the iteration row, which the
// program's bound Inputs (see Bind) fill once per iteration before the
// pass.
//
// A ring of depth d, at least maxDelay+1, holds node n's iteration j at
// ring[(j%d)*N + n], N the graph's node count: one iteration's instants
// are contiguous. The evaluators keep maxDelay+1 iterations; an engine
// may keep more (Pass and EvalAt take the depth).
//
// One Program serves any number of concurrent evaluators: all compiled
// state is immutable after Compile. The steady-state pass (once every
// delayed reference lands after the origin) is branch-light and performs
// no allocations, which is what moves the knee of the paper's Fig. 5 —
// the point where ComputeInstant cost catches up with the saved kernel
// events — toward larger graphs.
type Program struct {
	g     *Graph
	depth int32 // maxDelay+1: the iterations an evaluator's ring keeps
	n     int32 // graph node count: the ring distance between two iterations

	// nodes lists the non-input nodes in evaluation (topological) order;
	// the arcs of nodes[i] are arcs[nodes[i].lo:nodes[i].hi].
	nodes []progNode
	arcs  []progArc
	// ids[i] is the graph node of nodes[i], from[j] the source node of
	// arcs[j].
	ids  []NodeID
	from []NodeID
	// readers[rdLo[n]:rdLo[n+1]] are the arcs leaving graph node n, and
	// sameIter[i] counts the zero-delay arcs of nodes[i]: what counting
	// readiness (Readers, SameIter) decrements and starts from.
	readers  []Reader
	rdLo     []int32
	sameIter []int32
	// rowRefs is one past the largest Inputs row entry an arc reads.
	rowRefs int
	// in fills the row weights (nil: the program reads none).
	in Inputs

	// pool recycles evaluators (ring and output buffers) across runs.
	// Bound siblings share it, so a design-space sweep reuses the same
	// rings for every point of one structural shape. bpool does the same
	// for batch evaluators. Only Compile makes pools, so a shared bpool
	// is what makes two programs Bind siblings (NewBatchEvaluator).
	pool  *sync.Pool
	bpool *sync.Pool

	constArcs int
	varyArcs  int
}

// Inputs supplies the data a program's row weights read: the iteration
// row. Fill writes iteration k's Width entries, entry i at row[i*stride]
// (stride 1 for a scalar evaluator, the lane count for a batch). Entries
// past those the arcs read are the binding's own: tdg carries them and
// never reads them. Fill must be a pure function of k and safe for
// concurrent use. An error fails the evaluation of iteration k.
type Inputs interface {
	Width() int
	Fill(k int, row []maxplus.T, stride int) error
}

// progNode is one non-input node of the compiled evaluation order.
type progNode struct {
	slotBase int32 // NodeID: ring index of the node's instant in slot 0
	lo, hi   int32 // arc range in Program.arcs
	// copySrc specializes the most common node shape — exactly one
	// zero-delay identity arc (pad chains, rendezvous forwarding) — into
	// a single ring-to-ring copy: >= 0 is the source node's slot base,
	// -1 means evaluate the arc range.
	copySrc int32
}

// progArc is one packed arc of the flat table.
type progArc struct {
	srcBase int32 // From: ring index of the source's instant in slot 0
	slotSub int32 // Delay * N: ring offset of the referenced slot
	delay   int32 // full delay, for the pre-origin rule of the warm pass
	widx    int32 // >= 0: index into the iteration row; < 0: w is inline
	w       maxplus.T
}

// compiles counts Compile invocations process-wide; serving metrics use
// it to show how much model-construction work the rebinding path avoids.
var compiles atomic.Int64

// Compiles returns the number of times Compile has run in this process.
func Compiles() int64 { return compiles.Load() }

// Compile flattens a frozen graph into an evaluation program. The
// compiled evaluator is bit-exact against a walk of the graph's arc lists
// by construction: both apply the same (max,+) fold in the same node and
// arc order (the package tests hold it to such an interpreter).
func Compile(g *Graph) (*Program, error) {
	if !g.frozen {
		return nil, fmt.Errorf("tdg: Compile on unfrozen graph %q", g.Name)
	}
	compiles.Add(1)
	depth := int32(g.maxDelay + 1)
	p := &Program{
		g:     g,
		depth: depth,
		n:     int32(len(g.nodes)),
		nodes: make([]progNode, 0, len(g.topo)-len(g.inputs)),
		pool:  &sync.Pool{},
		bpool: &sync.Pool{},
	}
	arcCount := 0
	for _, arcs := range g.in {
		arcCount += len(arcs)
	}
	p.arcs = make([]progArc, 0, arcCount)
	p.from = make([]NodeID, 0, arcCount)
	p.ids = make([]NodeID, 0, cap(p.nodes))
	for _, id := range g.topo {
		if g.nodes[id].Kind == Input {
			continue
		}
		lo := int32(len(p.arcs))
		for _, a := range g.in[id] {
			p.arcs = append(p.arcs, p.packArc(a))
			p.from = append(p.from, a.From)
		}
		hi := int32(len(p.arcs))
		n := progNode{slotBase: int32(id), lo: lo, hi: hi, copySrc: -1}
		if hi == lo+1 {
			if a := &p.arcs[lo]; a.delay == 0 && a.widx < 0 && a.w == maxplus.E {
				n.copySrc = a.srcBase
			}
		}
		p.nodes = append(p.nodes, n)
		p.ids = append(p.ids, id)
	}
	p.indexReaders()
	return p, nil
}

// Reader is one arc seen from its source node: the arc makes iteration
// k+Delay of the I-th evaluated node (graph node Node) reference the
// source's iteration k.
type Reader struct {
	I, Delay int32
	Node     NodeID
}

// indexReaders builds the per-source arc lists and the zero-delay arc
// counts of the evaluated nodes.
func (p *Program) indexReaders() {
	p.rdLo = make([]int32, len(p.g.nodes)+1)
	for _, f := range p.from {
		p.rdLo[f+1]++
	}
	for n := range p.g.nodes {
		p.rdLo[n+1] += p.rdLo[n]
	}
	p.readers = make([]Reader, len(p.arcs))
	fill := append([]int32(nil), p.rdLo[:len(p.g.nodes)]...)
	p.sameIter = make([]int32, len(p.nodes))
	for i := range p.nodes {
		n := &p.nodes[i]
		for ai := n.lo; ai < n.hi; ai++ {
			a := &p.arcs[ai]
			f := p.from[ai]
			p.readers[fill[f]] = Reader{I: int32(i), Delay: a.delay, Node: p.ids[i]}
			fill[f]++
			if a.delay == 0 {
				p.sameIter[i]++
			}
		}
	}
}

// packArc flattens one arc, inlining iteration-independent weights and
// pointing row weights at their row entry.
func (p *Program) packArc(a Arc) progArc {
	pa := progArc{
		srcBase: int32(a.From),
		slotSub: int32(a.Delay) * p.n,
		delay:   int32(a.Delay),
		widx:    -1,
	}
	if c, ok := a.Weight.Const(); ok {
		pa.w = c
		p.constArcs++
		return pa
	}
	i, _ := a.Weight.RowEntry()
	p.varyArcs++
	pa.widx = int32(i)
	p.rowRefs = max(p.rowRefs, i+1)
	return pa
}

// Bind returns a sibling of the program whose row weights read the rows
// in fills. The sibling shares everything else — structure, arc table
// and evaluator pools — so binding one compiled shape to many parameter
// points costs one small copy each.
func (p *Program) Bind(in Inputs) (*Program, error) {
	if in.Width() < p.rowRefs {
		return nil, fmt.Errorf("tdg: program %q reads %d row entries, inputs fill %d", p.g.Name, p.rowRefs, in.Width())
	}
	np := *p
	np.in = in
	return &np, nil
}

// rowWidth is the length of an evaluator's iteration row.
func (p *Program) rowWidth() int {
	if p.in == nil {
		return 0
	}
	return p.in.Width()
}

// fillRow writes iteration k's row from the bound inputs.
func (p *Program) fillRow(k int, row []maxplus.T, stride int) error {
	if p.in != nil {
		return p.in.Fill(k, row, stride)
	}
	if p.rowRefs > 0 {
		return fmt.Errorf("tdg: program %q reads row weights but has no inputs bound", p.g.Name)
	}
	return nil
}

// Graph returns the graph the program was compiled from.
func (p *Program) Graph() *Graph { return p.g }

// ProgramStats describes a compiled program's shape.
type ProgramStats struct {
	Nodes    int // evaluated (non-input) nodes
	Arcs     int // total packed arcs
	Inline   int // arcs with identity or constant weight, inlined
	Indirect int // arcs with k-dependent weights, read from the row
}

// Stats returns the program's shape counters.
func (p *Program) Stats() ProgramStats {
	return ProgramStats{
		Nodes:    len(p.nodes),
		Arcs:     len(p.arcs),
		Inline:   p.constArcs,
		Indirect: p.varyArcs,
	}
}

// NewEvaluator returns an evaluator running the compiled program,
// recycling a previously Released one when available. The evaluator
// starts at iteration zero with an ε-cleared history ring.
func (p *Program) NewEvaluator() *Evaluator {
	if e, ok := p.pool.Get().(*Evaluator); ok {
		// Pooled rings come from a program of identical geometry (the
		// pool is shared only across Bound siblings), but may carry the
		// previous run's instants.
		e.bindProgram(p)
		e.Reset()
		return e
	}
	depth := int(p.depth)
	ring := make([]maxplus.T, len(p.g.nodes)*depth)
	for i := range ring {
		ring[i] = maxplus.Epsilon
	}
	e := &Evaluator{
		depth:  depth,
		ring:   ring,
		outBuf: make([]maxplus.T, len(p.g.outputs)),
	}
	e.bindProgram(p)
	return e
}

// release returns an evaluator to the pool (see Evaluator.Release).
func (p *Program) release(e *Evaluator) {
	p.pool.Put(e)
}

// Pass computes every node of iteration k from iteration k's row into a
// ring of depth d, at least the program's (see Program).
func (p *Program) Pass(k int, ring []maxplus.T, d int, row []maxplus.T) {
	p.pass(ring, row, k, slotOf(k, d), d)
}

// slotOf returns k%d, masking when d is a power of two.
func slotOf(k, d int) int {
	if d&(d-1) == 0 {
		return k & (d - 1)
	}
	return k % d
}

// pass computes every non-input instant of iteration k, whose slot is
// k%d, from the filled iteration row into a ring of depth d. The warm
// pass applies the pre-origin rule (a delayed arc referencing an
// iteration before the origin contributes ε); once k is at least the
// maximum delay — immediately for delay-free graphs — the steady pass
// drops that branch.
func (p *Program) pass(ring, row []maxplus.T, k, slot, d int) {
	if k >= p.g.maxDelay {
		p.steadyPass(ring, row, int32(slot)*p.n, int32(d)*p.n)
	} else {
		p.warmPass(ring, row, k, slot, d)
	}
}

// steadyPass is the hot loop of ComputeInstant: one branch-light,
// allocation-free sweep over the packed arc table. s is the ring offset
// of the iteration's slot, span the ring's length.
func (p *Program) steadyPass(ring, row []maxplus.T, s, span int32) {
	arcs := p.arcs
	for ni := range p.nodes {
		n := &p.nodes[ni]
		if cs := n.copySrc; cs >= 0 {
			ring[n.slotBase+s] = ring[cs+s]
			continue
		}
		acc := maxplus.Epsilon
		for ai := n.lo; ai < n.hi; ai++ {
			a := &arcs[ai]
			ss := s - a.slotSub
			if ss < 0 {
				ss += span
			}
			src := ring[a.srcBase+ss]
			var v maxplus.T
			if a.widx < 0 {
				if a.w == maxplus.E {
					v = src // identity: ε stays ε, finite stays put
				} else {
					v = maxplus.Otimes(src, a.w)
				}
			} else {
				if src == maxplus.Epsilon {
					continue
				}
				v = maxplus.Otimes(src, row[a.widx])
			}
			if v > acc {
				acc = v
			}
		}
		ring[n.slotBase+s] = acc
	}
}

// warmPass is steadyPass plus the pre-origin rule for iterations still
// inside the delay window: one EvalAt per node, in evaluation order.
func (p *Program) warmPass(ring, row []maxplus.T, k, slot, d int) {
	s := slot * int(p.n)
	for i := range p.nodes {
		ring[int(p.nodes[i].slotBase)+s] = p.EvalAt(i, k, ring, d, row)
	}
}

// Len returns the number of nodes the program evaluates (every non-input
// node): the range of the node index i of Node, Unresolved and EvalAt,
// which run in a topological order of the zero-delay arcs.
func (p *Program) Len() int { return len(p.nodes) }

// Node returns the graph node the program evaluates i-th.
func (p *Program) Node(i int) NodeID { return p.ids[i] }

// Readers returns the arcs leaving graph node n.
func (p *Program) Readers(n NodeID) []Reader { return p.readers[p.rdLo[n]:p.rdLo[n+1]] }

// SameIter returns, per evaluated node, its number of zero-delay arcs:
// the references of an iteration left unresolved once every earlier
// iteration is final. The slice is shared; callers must not modify it.
func (p *Program) SameIter() []int32 { return p.sameIter }

// Unresolved counts the instants the i-th node's iteration k references
// that are not final, where done[n] counts node n's final iterations
// (0..done[n]-1). A reference before the origin is ε, final from the
// start.
func (p *Program) Unresolved(i, k int, done []int) int32 {
	n := &p.nodes[i]
	var c int32
	for ai := n.lo; ai < n.hi; ai++ {
		if d := int(p.arcs[ai].delay); d <= k && done[p.from[ai]] <= k-d {
			c++
		}
	}
	return c
}

// EvalAt computes the i-th node's instant at iteration k from iteration
// k's row and a ring of depth d, at least the program's (see Program);
// an arc referencing an iteration before the origin contributes ε (the
// pre-origin rule). It reads only what Unresolved checks.
func (p *Program) EvalAt(i, k int, ring []maxplus.T, d int, row []maxplus.T) maxplus.T {
	n := &p.nodes[i]
	s := int32(slotOf(k, d)) * p.n
	span := int32(d) * p.n
	acc := maxplus.Epsilon
	for ai := n.lo; ai < n.hi; ai++ {
		a := &p.arcs[ai]
		if int(a.delay) > k {
			continue // references an iteration before the origin: ε
		}
		ss := s - a.slotSub
		if ss < 0 {
			ss += span
		}
		src := ring[a.srcBase+ss]
		var v maxplus.T
		if a.widx < 0 {
			if a.w == maxplus.E {
				v = src
			} else {
				v = maxplus.Otimes(src, a.w)
			}
		} else {
			if src == maxplus.Epsilon {
				continue
			}
			v = maxplus.Otimes(src, row[a.widx])
		}
		if v > acc {
			acc = v
		}
	}
	return acc
}
