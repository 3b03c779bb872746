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

// RT is the runtime of one channel. Its methods are called from a
// process's handler and complete by call-back: a transfer that cannot
// complete now arms the process on the channel's event and reports
// false, and the handler calls the same method again when woken. A
// rendezvous completes the transfer on that call; a FIFO retries it.
type RT interface {
	// Read consumes a token. With it, it returns the writer's instant:
	// when the writer offered the token on a rendezvous, when it wrote
	// it into a FIFO.
	Read(p *sim.Proc) (tok model.Token, wrote sim.Time, ok bool)
	// Write offers a token, blocking according to the protocol. A
	// write that does not complete at once is completed by a later call
	// with the same token.
	Write(p *sim.Proc, tok model.Token) bool
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
	writerReady bool // the writer offered pending at offered
	readerReady bool // the reader waits for a writer
	pending     model.Token
	offered     sim.Time
	// A side whose transfer the other side completed collects it on its
	// next call: the writer's flag, and the reader's with the token it
	// was handed and its writer's instant, kept apart from pending
	// because the writer may offer its next token before the reader
	// collects this one.
	writerDone bool
	readerDone bool
	handed     model.Token
	handedAt   sim.Time
	trace      *observe.Trace
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
}

// Write implements RT. If the reader arrived first the writer completes
// the transfer immediately; otherwise it waits until the reader does.
func (c *RV) Write(p *sim.Proc, tok model.Token) bool {
	if c.writerDone {
		c.writerDone = false
		return true
	}
	now := p.Now()
	if c.readerReady {
		c.readerReady = false
		c.readerDone, c.handed, c.handedAt = true, tok, now
		c.record(now)
		c.ev.Notify()
		return true
	}
	c.writerReady, c.pending, c.offered = true, tok, now
	p.On(c.ev)
	return false
}

// Read implements RT, symmetrically to Write.
func (c *RV) Read(p *sim.Proc) (model.Token, sim.Time, bool) {
	if c.readerDone {
		c.readerDone = false
		return c.handed, c.handedAt, true
	}
	if c.writerReady {
		c.writerReady = false
		c.writerDone = true
		c.record(p.Now())
		c.ev.Notify()
		return c.pending, c.offered, true
	}
	c.readerReady = true
	p.On(c.ev)
	return model.Token{}, 0, false
}

// FIFO implements a bounded FIFO channel: the writer blocks only when the
// buffer is full, the reader only when it is empty. Write and read
// instants are the two evolution instants xw_M(k) and xr_M(k); they are
// recorded under "<name>.w" and "<name>.r". Each buffered token keeps its
// write instant, so the channel's memory is its capacity.
type FIFO struct {
	name     string
	buf      []stamped
	head     int
	n        int
	notFull  *sim.Event
	notEmpty *sim.Event
	trace    *observe.Trace
}

// stamped is a buffered token and the instant it was written.
type stamped struct {
	tok model.Token
	at  sim.Time
}

// NewFIFO creates a FIFO runtime with the channel's capacity.
func NewFIFO(k *sim.Kernel, ch *model.Channel, trace *observe.Trace) *FIFO {
	return &FIFO{
		name:     ch.Name,
		buf:      make([]stamped, ch.Capacity),
		notFull:  k.NewEvent(ch.Name + ".notfull"),
		notEmpty: k.NewEvent(ch.Name + ".notempty"),
		trace:    trace,
	}
}

// Write implements RT.
func (c *FIFO) Write(p *sim.Proc, tok model.Token) bool {
	if c.n == len(c.buf) {
		p.On(c.notFull)
		return false
	}
	c.buf[(c.head+c.n)%len(c.buf)] = stamped{tok, p.Now()}
	c.n++
	if c.trace != nil {
		c.trace.RecordInstant(c.name+".w", maxplus.T(p.Now()))
	}
	c.notEmpty.Notify()
	return true
}

// Read implements RT.
func (c *FIFO) Read(p *sim.Proc) (model.Token, sim.Time, bool) {
	if c.n == 0 {
		p.On(c.notEmpty)
		return model.Token{}, 0, false
	}
	s := c.buf[c.head]
	c.head = (c.head + 1) % len(c.buf)
	c.n--
	if c.trace != nil {
		c.trace.RecordInstant(c.name+".r", maxplus.T(p.Now()))
	}
	c.notFull.Notify()
	return s.tok, s.at, true
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

// Park arms process p on the slot's event for iteration k; the call Fire
// triggers reads the instant from Fired.
func (w *Parked) Park(p *sim.Proc, k int) {
	w.k = k
	p.On(w.ev)
}

// Fired returns the instant the last Fire scheduled the process for.
func (w *Parked) Fired() maxplus.T { return w.at }

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
