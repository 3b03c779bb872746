package tdg

import (
	"fmt"

	"dyncomp/internal/maxplus"
)

// BatchEvaluator evaluates N sibling programs of one structural shape in
// lockstep: one pass over the shared packed arc table computes iteration
// k for every lane at once.
//
// Memory is laid out lane-innermost (structure of arrays): the history
// ring holds ring[(slot*N+node)*L + lane] (N the node count), the
// iteration rows rows[entry*L + lane], and Step's inputs and outputs are
// lane-strided the same way (u[i*L+lane] is input i of lane `lane`). One
// instruction stream therefore amortizes the arc-table walk, the branch
// pattern and the ring indexing over all lanes, while each lane fills
// its own row from its own Inputs — which is exactly the sweep access
// pattern: many parameter points over one shared structure.
//
// Lanes must be Bind siblings of one compiled program (derive.Rebind,
// RebindBatch and Cache.DeriveBatch produce exactly that) bound to rows
// of one width: they share the arc table, in which const and identity
// weights are baked, so only row entries differ per lane. An
// independent compile of the same graph is not a sibling.
//
// A BatchEvaluator is bit-exact against running each lane through its
// own scalar Evaluator: both apply the same (max,+) fold in the same
// node and arc order.
type BatchEvaluator struct {
	proto *Program   // structure owner: nodes, arcs
	lanes []*Program // per-lane programs (their bound inputs)

	k     int
	depth int
	width int // number of lanes L

	ring   []maxplus.T // [(slot*N + node)*L + lane]
	rows   []maxplus.T // [entry*L + lane], refilled each Step
	outBuf []maxplus.T // [output*L + lane], reused by Step

	active  []bool  // lanes still stepping; disabled lanes keep stale values
	errs    []error // the row fill error that disabled a lane
	nActive int
}

// NewBatchEvaluator builds a batch evaluator over the given lane
// programs, recycling a previously Released one of matching geometry
// from the programs' shared pool. All lanes must share one compiled
// structure (see BatchEvaluator); a mismatch is an error — callers fall
// back to per-lane scalar evaluation.
func NewBatchEvaluator(lanes []*Program) (*BatchEvaluator, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("tdg: NewBatchEvaluator needs at least one lane")
	}
	proto := lanes[0]
	for i, p := range lanes[1:] {
		if err := batchCompatible(proto, p); err != nil {
			return nil, fmt.Errorf("tdg: batch lane %d: %w", i+1, err)
		}
	}
	L := len(lanes)
	depth := int(proto.depth)
	if b, ok := proto.bpool.Get().(*BatchEvaluator); ok {
		if b.width == L &&
			len(b.ring) == len(proto.g.nodes)*depth*L &&
			len(b.rows) == proto.rowWidth()*L &&
			len(b.outBuf) == len(proto.g.outputs)*L {
			b.proto = proto
			copy(b.lanes, lanes)
			b.reset()
			return b, nil
		}
		// Geometry drifted (a sibling bound to inputs of another
		// width): drop the stale buffers for the collector.
	}
	b := &BatchEvaluator{
		proto:  proto,
		lanes:  append([]*Program(nil), lanes...),
		depth:  depth,
		width:  L,
		ring:   make([]maxplus.T, len(proto.g.nodes)*depth*L),
		rows:   make([]maxplus.T, proto.rowWidth()*L),
		outBuf: make([]maxplus.T, len(proto.g.outputs)*L),
		active: make([]bool, L),
		errs:   make([]error, L),
	}
	b.reset()
	return b, nil
}

// batchCompatible reports whether q is a Bind sibling of p with a row of
// the same width. Siblings share the evaluator pools, which only Compile
// creates.
func batchCompatible(p, q *Program) error {
	switch {
	case q == nil:
		return fmt.Errorf("nil program")
	case p.bpool != q.bpool:
		return fmt.Errorf("not a Bind sibling of lane 0")
	case p.rowWidth() != q.rowWidth():
		return fmt.Errorf("row widths differ (%d vs %d entries)", p.rowWidth(), q.rowWidth())
	}
	return nil
}

// reset rewinds to iteration zero: ε-cleared ring, every lane active.
func (b *BatchEvaluator) reset() {
	b.k = 0
	for i := range b.ring {
		b.ring[i] = maxplus.Epsilon
	}
	for i := range b.active {
		b.active[i] = true
		b.errs[i] = nil
	}
	b.nActive = b.width
}

// Release returns the batch evaluator to its structure's pool for reuse
// by a later NewBatchEvaluator of the same geometry. The evaluator must
// not be used after Release.
func (b *BatchEvaluator) Release() {
	for i := range b.lanes {
		b.lanes[i] = b.proto // drop sibling references; geometry stays valid
	}
	b.proto.bpool.Put(b)
}

// K returns the index of the next iteration to be computed. All active
// lanes advance in lockstep.
func (b *BatchEvaluator) K() int { return b.k }

// Graph returns the structure lane 0 was compiled from. All lanes share
// its node, input and output layout.
func (b *BatchEvaluator) Graph() *Graph { return b.proto.g }

// Disable marks a lane as finished: Step fills no row for it and its
// ring values go stale. Disabling is how a caller retires lanes that
// diverge (shorter runs, failed lanes) while the rest keep stepping; the
// pass still computes the dead lane's slots, on garbage inputs, which is
// harmless — saturating (max,+) arithmetic cannot trap and the values
// are never read.
func (b *BatchEvaluator) Disable(lane int) {
	if b.active[lane] {
		b.active[lane] = false
		b.nActive--
	}
}

// ActiveLanes returns how many lanes are still enabled.
func (b *BatchEvaluator) ActiveLanes() int { return b.nActive }

// Err returns the error that failed a lane's row fill, or nil. Step
// disables such a lane and keeps stepping the others.
func (b *BatchEvaluator) Err(lane int) error { return b.errs[lane] }

// Step computes all evolution instants of the next iteration k for every
// lane. u holds the input instants lane-strided — u[i*L+lane] is input i
// of lane `lane`, L the batch width — and the returned outputs are laid
// out the same way. The returned slice is reused by the next Step. Step
// first fills every active lane's row of iteration k; a lane whose fill
// fails is disabled, with the error kept for Err.
func (b *BatchEvaluator) Step(u []maxplus.T) ([]maxplus.T, error) {
	L := b.width
	g := b.proto.g
	if len(u) != len(g.inputs)*L {
		return nil, fmt.Errorf("tdg: %d batched inputs supplied, graph %q has %d inputs × %d lanes",
			len(u), g.Name, len(g.inputs), L)
	}
	k := b.k
	slot := k % b.depth
	for i, id := range g.inputs {
		base := (slot*len(g.nodes) + int(id)) * L
		copy(b.ring[base:base+L], u[i*L:(i+1)*L])
	}
	b.fillRows(k)
	b.runNodes(0, len(b.proto.nodes), k, slot)
	for j, id := range g.outputs {
		base := (slot*len(g.nodes) + int(id)) * L
		copy(b.outBuf[j*L:(j+1)*L], b.ring[base:base+L])
	}
	b.k++
	return b.outBuf, nil
}

// fillRows fills every active lane's row of iteration k into the
// lane-strided rows.
func (b *BatchEvaluator) fillRows(k int) {
	for l, p := range b.lanes {
		if !b.active[l] {
			continue
		}
		// Lane l's entries start at rows[l]; a row-free program has none.
		if err := p.fillRow(k, b.rows[min(l, len(b.rows)):], b.width); err != nil {
			b.errs[l] = err
			b.Disable(l)
		}
	}
}

// runNodes is the lane-innermost kernel: for each node of
// proto.nodes[nlo:nhi] it folds the packed arcs over all L lanes at
// once. Step passes every node, in topological order, so one sequential
// sweep is exact; explicit bounds compile to a faster loop than ranging
// over proto.nodes (6% at width 1 with Go 1.24 on a 2-vCPU x86-64 host).
// Slicing every ring window to exactly L lets the compiler drop the
// per-lane bounds checks from the inner loops.
func (b *BatchEvaluator) runNodes(nlo, nhi, k, slot int) {
	p := b.proto
	arcs := p.arcs
	ring := b.ring
	rows := b.rows
	L := b.width
	span := int32(b.depth) * p.n
	s := int32(slot) * p.n
	k32 := int32(k)
	warm := k < b.depth-1
	for ni := nlo; ni < nhi; ni++ {
		n := &p.nodes[ni]
		db := int(n.slotBase+s) * L
		dst := ring[db : db+L]
		if cs := n.copySrc; cs >= 0 {
			// Zero-delay identity arcs never reference a pre-origin
			// iteration, so the copy fast path holds in the warm window too.
			sb := int(cs+s) * L
			copy(dst, ring[sb:sb+L])
			continue
		}
		for l := range dst {
			dst[l] = maxplus.Epsilon
		}
		for ai := n.lo; ai < n.hi; ai++ {
			a := &arcs[ai]
			if warm && a.delay > k32 {
				continue // references an iteration before the origin: ε
			}
			ss := s - a.slotSub
			if ss < 0 {
				ss += span
			}
			sb := int(a.srcBase+ss) * L
			src := ring[sb : sb+L]
			dst := dst[:len(src)]
			if a.widx < 0 {
				if a.w == maxplus.E {
					for l, sv := range src {
						if sv > dst[l] {
							dst[l] = sv // identity: ε stays ε, finite stays put
						}
					}
				} else {
					w := a.w
					for l, sv := range src {
						if v := maxplus.Otimes(sv, w); v > dst[l] {
							dst[l] = v
						}
					}
				}
				continue
			}
			wb := int(a.widx) * L
			ws := rows[wb : wb+L]
			ws = ws[:len(src)]
			for l, sv := range src {
				if sv == maxplus.Epsilon {
					continue
				}
				if v := maxplus.Otimes(sv, ws[l]); v > dst[l] {
					dst[l] = v
				}
			}
		}
	}
}

// LaneValuesInto copies one lane's instants at the most recently
// computed iteration into dst (NodeCount entries, node ID order) — the
// batched counterpart of Evaluator.ValuesInto.
func (b *BatchEvaluator) LaneValuesInto(lane int, dst []maxplus.T) {
	if b.k == 0 {
		panic("tdg: LaneValuesInto before first Step")
	}
	if len(dst) != len(b.proto.g.nodes) {
		panic(fmt.Sprintf("tdg: LaneValuesInto dst size %d, want %d", len(dst), len(b.proto.g.nodes)))
	}
	L := b.width
	base := (b.k - 1) % b.depth * len(dst)
	for i := range dst {
		dst[i] = b.ring[(base+i)*L+lane]
	}
}

// LaneRowInto copies one lane's row of the most recently computed
// iteration, as its Inputs filled it, into dst (Width entries) — the
// batched counterpart of Evaluator.Row.
func (b *BatchEvaluator) LaneRowInto(lane int, dst []maxplus.T) {
	for i := range dst {
		dst[i] = b.rows[i*b.width+lane]
	}
}
