package baseline

import (
	"dyncomp/internal/model"
	"dyncomp/internal/sim"
)

// resourceRT enforces the static schedule of a resource: its mapped
// functions take turns in rotation order, and with concurrency c the
// global turn t may begin only once turn t-c has ended. c = 1 serializes
// the rotation (a processor); c = len(rotation) leaves each function gated
// only by its own previous iteration (dedicated hardware).
//
// One case must not be enforced by an explicit wait: when the gating turn
// belongs to the same iteration and its function's last statement is a
// rendezvous write into this function's first read (the F1→F2 handoff of
// the didactic example), the previous turn can only end once this function
// arrives at the rendezvous. There the serialization is realized by the
// rendezvous itself — the transfer instant is simultaneously the
// predecessor's turn end and this function's turn start, which is exactly
// what equation (3) of the paper expresses — and an explicit wait would
// deadlock. GateSkipped detects that case; the temporal-dependency-graph
// derivation applies the identical rule (its self-arc elimination), so
// both engines agree.
type resourceRT struct {
	r *model.Resource
	// ended[t%c] holds turn t once it has ended and until turn t+c has
	// consumed it (-1 when empty), with c the effective concurrency. The
	// turns fall into c chains by t mod c, and each chain runs strictly
	// in order: turn t starts only once turn t-c has ended (directly, or
	// through the rendezvous handoff, whose ends are never stored), so
	// turn t+c cannot end before turn t is consumed. A chain therefore
	// holds at most one ended, unconsumed turn, and c slots never
	// collide.
	ended []int
	ev    *sim.Event
	// skipStore[j] reports that the ends of rotation[j]'s turns are never
	// consumed, because their consumer skips its gate.
	skipStore []bool
}

func newResourceRT(k *sim.Kernel, r *model.Resource) *resourceRT {
	m := len(r.Rotation)
	rt := &resourceRT{r: r, ended: make([]int, effectiveConcurrency(r)), ev: k.NewEvent("turn:" + r.Name), skipStore: make([]bool, m)}
	for i := range rt.ended {
		rt.ended[i] = -1
	}
	for j := 0; j < m; j++ {
		consumer := r.Rotation[(j+effectiveConcurrency(r))%m]
		rt.skipStore[j] = GateSkipped(consumer)
	}
	return rt
}

// effectiveConcurrency clamps the resolved concurrency into [1, m].
func effectiveConcurrency(r *model.Resource) int {
	c := r.Concurrency
	if c < 1 {
		c = 1
	}
	if m := len(r.Rotation); c > m {
		c = m
	}
	return c
}

// GateSkipped reports whether f's rotation gate must be realized through
// the rendezvous handoff instead of an explicit wait: the gating turn is
// in the same iteration (delay 0) and its function's last statement writes
// the rendezvous channel that f reads first.
func GateSkipped(f *model.Function) bool {
	r := f.Resource
	m := len(r.Rotation)
	c := effectiveConcurrency(r)
	j := f.RotIndex
	idx, d := j-c, 0
	for idx < 0 {
		idx += m
		d++
	}
	if d != 0 {
		return false
	}
	pred := r.Rotation[idx]
	w, ok := pred.Body[len(pred.Body)-1].(model.Write)
	if !ok || w.Ch.Kind != model.Rendezvous {
		return false
	}
	first, ok := f.Body[0].(model.Read)
	return ok && first.Ch == w.Ch
}

// gateOpen reports whether the gate of global turn t is open, consuming
// it; when it is not, it arms p on the resource's turn event, and p
// checks again when a turn ends.
func (rt *resourceRT) gateOpen(p *sim.Proc, t int, skip bool) bool {
	c := len(rt.ended)
	gate := t - c
	if skip || gate < 0 {
		return true
	}
	if rt.ended[gate%c] != gate {
		p.On(rt.ev)
		return false
	}
	rt.ended[gate%c] = -1 // consumed exactly once, by turn gate+c
	return true
}

// endTurn marks turn t finished and wakes functions waiting on the gate.
func (rt *resourceRT) endTurn(t int, j int) {
	if rt.skipStore[j] {
		return // the consumer synchronizes through the rendezvous instead
	}
	rt.ended[t%len(rt.ended)] = t
	rt.ev.Notify()
}
