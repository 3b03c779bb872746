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
// One Program serves any number of concurrent evaluators: all compiled
// state is immutable after Compile. The steady-state pass (once every
// delayed reference lands after the origin) is branch-light and performs
// no allocations, which is what moves the knee of the paper's Fig. 5 —
// the point where ComputeInstant cost catches up with the saved kernel
// events — toward larger graphs.
type Program struct {
	g     *Graph
	depth int32

	// nodes lists the non-input nodes in evaluation (topological) order;
	// the arcs of nodes[i] are arcs[nodes[i].lo:nodes[i].hi].
	nodes []progNode
	arcs  []progArc
	// ids[i] is the graph node of nodes[i], from[j] the source node of
	// arcs[j]: the node-granular entry points (Ready, EvalAt) index
	// rings of any depth with them.
	ids  []NodeID
	from []NodeID
	// rowRefs is one past the largest Inputs row entry an arc reads.
	rowRefs int
	// in fills the row weights (nil: the program reads none).
	in Inputs

	// waves partitions nodes into maximal contiguous runs free of
	// intra-run zero-delay dependencies: nodes[waves[i]:waves[i+1]] may be
	// evaluated in any order (or concurrently) once the preceding waves of
	// the same iteration are done. Only zero-delay arcs constrain the
	// order within one pass — a positive delay references an earlier
	// iteration's ring slot. The batch evaluator parallelizes large waves.
	waves []int32

	// pool recycles evaluators (ring and output buffers) across runs.
	// Bound siblings share it, so a design-space sweep reuses the same
	// rings for every point of one structural shape. bpool does the same
	// for batch evaluators.
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
	slotBase int32 // NodeID * depth: base index of the node's ring slots
	lo, hi   int32 // arc range in Program.arcs
	// copySrc specializes the most common node shape — exactly one
	// zero-delay identity arc (pad chains, rendezvous forwarding) — into
	// a single ring-to-ring copy: >= 0 is the source node's slot base,
	// -1 means evaluate the arc range.
	copySrc int32
}

// progArc is one packed arc of the flat table.
type progArc struct {
	srcBase int32 // From * depth
	slotSub int32 // Delay % depth: ring-slot offset of the referenced slot
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
		n := progNode{slotBase: int32(id) * depth, lo: lo, hi: hi, copySrc: -1}
		if hi == lo+1 {
			if a := &p.arcs[lo]; a.delay == 0 && a.widx < 0 && a.w == maxplus.E {
				n.copySrc = a.srcBase
			}
		}
		p.nodes = append(p.nodes, n)
		p.ids = append(p.ids, id)
	}
	p.computeWaves()
	return p, nil
}

// computeWaves greedily splits the evaluation order into maximal
// contiguous runs in which no node has a zero-delay arc from another
// node of the same run. The boundaries are stored as a fence list:
// waves[0] = 0, waves[len-1] = len(nodes).
func (p *Program) computeWaves() {
	// gen[src] == cur marks src as a member of the wave under construction.
	gen := make([]int32, len(p.g.nodes))
	cur := int32(1)
	waves := make([]int32, 1, 8)
	for ni := range p.nodes {
		n := &p.nodes[ni]
		for ai := n.lo; ai < n.hi; ai++ {
			a := &p.arcs[ai]
			if a.delay == 0 && gen[a.srcBase/p.depth] == cur {
				waves = append(waves, int32(ni))
				cur++
				break
			}
		}
		gen[n.slotBase/p.depth] = cur
	}
	waves = append(waves, int32(len(p.nodes)))
	p.waves = waves
}

// packArc flattens one arc, inlining iteration-independent weights and
// pointing row weights at their row entry.
func (p *Program) packArc(a Arc) progArc {
	pa := progArc{
		srcBase: int32(a.From) * p.depth,
		slotSub: int32(a.Delay) % p.depth,
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

// pass computes every non-input instant of iteration k from the filled
// iteration row. The warm pass applies the pre-origin rule (a delayed
// arc referencing an iteration before the origin contributes ε); once k
// is at least the maximum delay — immediately for delay-free graphs —
// the steady pass drops that branch.
func (p *Program) pass(ring, row []maxplus.T, k, slot int) {
	if k >= int(p.depth)-1 {
		p.steadyPass(ring, row, slot)
	} else {
		p.warmPass(ring, row, k, slot)
	}
}

// steadyPass is the hot loop of ComputeInstant: one branch-light,
// allocation-free sweep over the packed arc table.
func (p *Program) steadyPass(ring, row []maxplus.T, slot int) {
	arcs := p.arcs
	depth := p.depth
	s := int32(slot)
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
				ss += depth
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
func (p *Program) warmPass(ring, row []maxplus.T, k, slot int) {
	depth := int(p.depth)
	for i := range p.nodes {
		ring[int(p.nodes[i].slotBase)+slot] = p.EvalAt(i, k, ring, depth, row)
	}
}

// Len returns the number of nodes the program evaluates (every non-input
// node): the range of the node index i of Node, Ready and EvalAt, which
// run in a topological order of the zero-delay arcs.
func (p *Program) Len() int { return len(p.nodes) }

// Node returns the graph node the program evaluates i-th.
func (p *Program) Node(i int) NodeID { return p.ids[i] }

// Ready reports whether every instant the i-th node's iteration k
// references is final, where done[n] counts node n's final iterations
// (0..done[n]-1). A reference before the origin is ε, final from the
// start.
func (p *Program) Ready(i, k int, done []int) bool {
	n := &p.nodes[i]
	for ai := n.lo; ai < n.hi; ai++ {
		if d := int(p.arcs[ai].delay); d <= k && done[p.from[ai]] <= k-d {
			return false
		}
	}
	return true
}

// EvalAt computes the i-th node's instant at iteration k from iteration
// k's row and a ring holding node n's iteration j at ring[n*d + j%d], for
// a depth d of at least the program's; an arc referencing an iteration
// before the origin contributes ε (the pre-origin rule). It reads only
// what Ready checks.
func (p *Program) EvalAt(i, k int, ring []maxplus.T, d int, row []maxplus.T) maxplus.T {
	n := &p.nodes[i]
	s := k % d
	acc := maxplus.Epsilon
	for ai := n.lo; ai < n.hi; ai++ {
		a := &p.arcs[ai]
		if int(a.delay) > k {
			continue // references an iteration before the origin: ε
		}
		ss := s - int(a.delay) // a.delay < d
		if ss < 0 {
			ss += d
		}
		src := ring[int(p.from[ai])*d+ss]
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
