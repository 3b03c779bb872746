// Package chanrt provides the simulation runtimes of the two channel
// protocols of the modelling layer — rendezvous and bounded FIFO — on top
// of the discrete-event kernel. Both the event-driven reference executor
// and the equivalent model use these runtimes, so channel timing semantics
// are identical by construction.
package chanrt

import (
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// RT is the runtime of one channel.
type RT interface {
	// Read blocks until a token is available and consumes it.
	Read(p *sim.Proc) model.Token
	// Write offers a token, blocking according to the protocol.
	Write(p *sim.Proc, tok model.Token)
}

// New builds the runtime matching the channel's protocol.
func New(k *sim.Kernel, ch *model.Channel, trace *observe.Trace) RT {
	if ch.Kind == model.FIFO {
		return NewFIFO(k, ch, trace)
	}
	return NewRV(k, ch, trace)
}

// Labels lists the instant labels a runtime of ch records.
func Labels(ch *model.Channel) []string {
	if ch.Kind == model.FIFO {
		return []string{ch.Name + ".w", ch.Name + ".r"}
	}
	return []string{ch.Name}
}

// RV implements the rendezvous protocol: writer and reader wait on each
// other, and the transfer — one simulation event — happens at the max of
// both ready instants, which is the evolution instant x_M(k).
type RV struct {
	name        string
	ev          *sim.Event
	writerReady bool
	readerReady bool
	pending     model.Token
	offered     sim.Time // when the writer of the latest transfer arrived
	k           int
	trace       *observe.Trace
}

// NewRV creates a rendezvous runtime recording transfer instants under the
// channel name when trace is non-nil.
func NewRV(k *sim.Kernel, ch *model.Channel, trace *observe.Trace) *RV {
	return &RV{name: ch.Name, ev: k.NewEvent(ch.Name), trace: trace}
}

func (c *RV) record(at sim.Time) {
	if c.trace != nil {
		c.trace.RecordInstant(c.name, maxplus.T(at))
	}
	c.k++
}

// Write implements RT. If the reader arrived first the writer completes
// the transfer immediately; otherwise it blocks until the reader does.
func (c *RV) Write(p *sim.Proc, tok model.Token) {
	c.offered = p.Now()
	if c.readerReady {
		c.readerReady = false
		c.pending = tok
		c.record(p.Now())
		c.ev.Notify()
		return
	}
	c.writerReady = true
	c.pending = tok
	p.WaitEvent(c.ev)
}

// Read implements RT, symmetrically to Write.
func (c *RV) Read(p *sim.Proc) model.Token {
	if c.writerReady {
		c.writerReady = false
		tok := c.pending
		c.record(p.Now())
		c.ev.Notify()
		return tok
	}
	c.readerReady = true
	p.WaitEvent(c.ev)
	return c.pending
}

// Offered returns the instant the writer of the latest transfer offered
// its token: the transfer instant when the reader came first, earlier
// when the writer waited for the reader.
func (c *RV) Offered() sim.Time { return c.offered }

// FIFO implements a bounded FIFO channel: the writer blocks only when the
// buffer is full, the reader only when it is empty. Write and read
// instants are the two evolution instants xw_M(k) and xr_M(k); they are
// recorded under "<name>.w" and "<name>.r".
type FIFO struct {
	name     string
	buf      []model.Token
	head     int
	n        int
	notFull  *sim.Event
	notEmpty *sim.Event
	writes   []maxplus.T // write instants by k, queryable by the equivalent model
	trace    *observe.Trace
}

// NewFIFO creates a FIFO runtime with the channel's capacity.
func NewFIFO(k *sim.Kernel, ch *model.Channel, trace *observe.Trace) *FIFO {
	return &FIFO{
		name:     ch.Name,
		buf:      make([]model.Token, ch.Capacity),
		notFull:  k.NewEvent(ch.Name + ".notfull"),
		notEmpty: k.NewEvent(ch.Name + ".notempty"),
		trace:    trace,
	}
}

// Write implements RT.
func (c *FIFO) Write(p *sim.Proc, tok model.Token) {
	for c.n == len(c.buf) {
		p.WaitEvent(c.notFull)
	}
	c.buf[(c.head+c.n)%len(c.buf)] = tok
	c.n++
	if c.trace != nil {
		c.trace.RecordInstant(c.name+".w", maxplus.T(p.Now()))
	}
	c.writes = append(c.writes, maxplus.T(p.Now()))
	c.notEmpty.Notify()
}

// Read implements RT.
func (c *FIFO) Read(p *sim.Proc) model.Token {
	for c.n == 0 {
		p.WaitEvent(c.notEmpty)
	}
	tok := c.buf[c.head]
	c.head = (c.head + 1) % len(c.buf)
	c.n--
	if c.trace != nil {
		c.trace.RecordInstant(c.name+".r", maxplus.T(p.Now()))
	}
	c.notFull.Notify()
	return tok
}

// WriteInstant returns the recorded instant of the k-th write; the
// equivalent model feeds it into the temporal dependency graph as the
// input instant.
func (c *FIFO) WriteInstant(k int) maxplus.T {
	if k < 0 || k >= len(c.writes) {
		return maxplus.Epsilon
	}
	return c.writes[k]
}

// Parked is a boundary process of an equivalent model waiting until its
// next action is computable. The engine that makes the action
// computable fires it once, at the instant the action is due, and wakes
// no other process.
type Parked struct {
	ev *sim.Event
	k  int       // the iteration waited for; -1 while running or scheduled
	at maxplus.T // the instant Fire scheduled it for
}

// NewParked returns a process slot on a fresh event of kernel k, with
// nothing parked.
func NewParked(k *sim.Kernel, name string) Parked {
	return Parked{ev: k.NewEvent(name), k: -1}
}

// Waiting returns the iteration the process is parked on, or -1.
func (w *Parked) Waiting() int { return w.k }

// Wait parks process p on iteration k until Fire and returns the
// instant it was fired at.
func (w *Parked) Wait(p *sim.Proc, k int) maxplus.T {
	w.k = k
	p.WaitEvent(w.ev)
	return w.at
}

// Fire schedules the parked process once, at instant at (now when at is
// ε or past), and marks it no longer parked.
func (w *Parked) Fire(now sim.Time, at maxplus.T) {
	w.k, w.at = -1, at
	if !at.IsEpsilon() && sim.Time(at) > now {
		w.ev.NotifyAt(sim.Time(at))
	} else {
		w.ev.Notify()
	}
}
