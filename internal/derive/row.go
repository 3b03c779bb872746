package derive

import (
	"fmt"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/tdg"
)

// execRef is an index-based reference to one Exec statement: functions
// and statements are identified by position so the reference resolves
// against any architecture of the same structural shape.
type execRef struct {
	fn   int // index into Architecture.Functions
	stmt int // index into Function.Body
}

// plan is the column layout of the iteration row of one structural
// shape. Derive computes it once; every Rebind shares it and only binds
// it to the new architecture's sources, cost functions and resources
// (see inputs).
//
// The row of iteration k holds what the (max,+) pass reads and nothing
// else: per column (one distinct exec statement), the statement's
// duration at k; then, per distinct multi-exec arc weight, the ⊗ fold of
// its columns in recipe order. Arcs read it as tdg.RowWeight. An
// execution's operation count is not in the row: Record recomputes it
// when it records the activity.
type plan struct {
	cols    []column
	bySrc   [][]int32 // per plan source: its columns
	srcs    []int     // architecture source index per plan source
	folds   []fold
	entries int // row entries: columns and folds
	probes  []probe
}

// column is one exec statement of the row. Labels and resource names
// are part of the structural shape, so they hold for every binding.
type column struct {
	ref      execRef
	src      int32 // plan source whose tokens it processes
	entry    int32 // row entry of its duration
	label    string
	resource string
}

// fold is one multi-exec arc weight: the ⊗ fold of its columns' entries.
type fold struct {
	entry int32
	of    []int32
}

// probe locates one execution on the graph for resource-usage
// observation: the execution starts at base(k) ⊗ the pre durations, in
// body order, and runs for the exec column's duration.
type probe struct {
	base tdg.NodeID
	pre  []int32 // duration entries
	exec int32   // column
}

// planner assigns row entries during the symbolic execution.
type planner struct {
	arch  *model.Architecture
	fnIdx map[*model.Function]int
	p     plan
	col   map[execRef]int32 // column per exec statement
	src   map[int]int32     // plan source per architecture source
	fold  map[string]int32  // entry per distinct multi-column fold
}

func newPlanner(a *model.Architecture, fnIdx map[*model.Function]int) *planner {
	return &planner{
		arch:  a,
		fnIdx: fnIdx,
		col:   map[execRef]int32{},
		src:   map[int]int32{},
		fold:  map[string]int32{},
	}
}

// column returns the column of an exec statement, adding it on first use.
func (pl *planner) column(e *model.ExecInfo) int32 {
	ref := execRef{fn: pl.fnIdx[e.Func], stmt: e.StmtIndex}
	if c, ok := pl.col[ref]; ok {
		return c
	}
	si := 0
	for i, s := range pl.arch.Sources {
		if s == e.Source() {
			si = i
		}
	}
	ps, ok := pl.src[si]
	if !ok {
		ps = int32(len(pl.p.srcs))
		pl.src[si] = ps
		pl.p.srcs = append(pl.p.srcs, si)
		pl.p.bySrc = append(pl.p.bySrc, nil)
	}
	c := int32(len(pl.p.cols))
	pl.col[ref] = c
	pl.p.cols = append(pl.p.cols, column{
		ref: ref, src: ps, entry: int32(pl.p.entries), label: e.Label, resource: e.Resource.Name,
	})
	pl.p.entries++
	pl.p.bySrc[ps] = append(pl.p.bySrc[ps], c)
	return c
}

// weight returns the arc weight of an accumulated duration list: the
// row entry of its single column, or of the fold of its columns.
func (pl *planner) weight(durs []*model.ExecInfo) tdg.Weight {
	if len(durs) == 1 {
		return tdg.RowWeight(int(pl.p.cols[pl.column(durs[0])].entry))
	}
	of := make([]int32, len(durs))
	key := ""
	for i, e := range durs {
		of[i] = pl.p.cols[pl.column(e)].entry
		key += fmt.Sprintf("%d,", of[i])
	}
	entry, ok := pl.fold[key]
	if !ok {
		entry = int32(pl.p.entries)
		pl.p.entries++
		pl.fold[key] = entry
		pl.p.folds = append(pl.p.folds, fold{entry: entry, of: of})
	}
	return tdg.RowWeight(int(entry))
}

// probe records the execution of e after the durations pre.
func (pl *planner) probe(base tdg.NodeID, pre []*model.ExecInfo, e *model.ExecInfo) {
	pr := probe{base: base, exec: pl.column(e)}
	for _, d := range pre {
		pr.pre = append(pr.pre, pl.p.cols[pl.column(d)].entry)
	}
	pl.p.probes = append(pl.p.probes, pr)
}

// bind resolves the plan against an architecture of its shape: equal
// shape keys list the same sources, functions and exec statements at the
// same positions.
func (p *plan) bind(a *model.Architecture) *inputs {
	in := &inputs{
		plan:   p,
		tokens: make([]model.TokenFn, len(p.srcs)),
		bound:  make([]boundColumn, 0, len(p.cols)),
	}
	for s, cols := range p.bySrc {
		in.tokens[s] = a.Sources[p.srcs[s]].Tokens
		for _, c := range cols {
			col := &p.cols[c]
			in.bound = append(in.bound, boundColumn{
				cost:  col.cost(a),
				res:   a.Functions[col.ref.fn].Resource,
				entry: col.entry,
				col:   c,
			})
		}
	}
	return in
}

// cost returns the column's cost function in a.
func (c *column) cost(a *model.Architecture) model.CostFn {
	return a.Functions[c.ref.fn].Body[c.ref.stmt].(model.Exec).Cost
}

// inputs binds a plan to one architecture's sources, cost functions and
// resources: the tdg.Inputs of a derived program. It is immutable, so
// one Result serves concurrent evaluations.
type inputs struct {
	plan   *plan
	tokens []model.TokenFn // per plan source
	bound  []boundColumn   // the columns, grouped by plan source in order
}

// boundColumn is one column resolved against a binding: all that Fill
// reads of it.
type boundColumn struct {
	cost  model.CostFn
	res   *model.Resource
	entry int32 // row entry of its duration
	col   int32
}

// Width implements tdg.Inputs.
func (in *inputs) Width() int { return in.plan.entries }

// Fill implements tdg.Inputs: one token per used source and one cost
// call and duration per column, in one walk of the bound columns, then
// the folds.
func (in *inputs) Fill(k int, row []maxplus.T, stride int) error {
	p := in.plan
	bound := in.bound
	for s, tokens := range in.tokens {
		tok := tokens(k)
		tok.K = k
		n := len(p.bySrc[s])
		for i := range bound[:n] {
			b := &bound[i]
			load := b.cost(tok)
			d, ok := b.res.Ticks(load)
			if !ok {
				var err error
				if d, err = b.res.Duration(load); err != nil {
					col := &p.cols[b.col]
					return fmt.Errorf("derive: execute %q on %q, iteration %d: %w", col.label, col.resource, k, err)
				}
			}
			row[int(b.entry)*stride] = d
		}
		bound = bound[n:]
	}
	for _, f := range p.folds {
		var sum maxplus.T
		for _, e := range f.of {
			sum = maxplus.Otimes(sum, row[int(e)*stride])
		}
		row[int(f.entry)*stride] = sum
	}
	return nil
}

// RowWidth returns the length of the result's iteration row: its
// duration entries.
func (r *Result) RowWidth() int { return r.plan.entries }

// FillRow writes iteration k's row into row (RowWidth entries): what
// the result's program reads when it steps iteration k, for evaluations
// that keep their own rows.
func (r *Result) FillRow(k int, row []maxplus.T) error { return r.in.Fill(k, row, 1) }
