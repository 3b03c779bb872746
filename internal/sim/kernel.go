// Package sim implements a deterministic discrete-event simulation kernel
// in the style of the SystemC reference simulator.
//
// A process is a run-to-completion handler, SystemC's SC_METHOD: the
// kernel calls it once at time zero and again each time its trigger
// fires, and each call is one activation. Before returning, a call arms
// at most one trigger — after a duration, at an instant or on an event,
// as next_trigger does — and a call that arms nothing ends the process.
// A process keeps its state in the handler's receiver, not on a stack,
// so an activation is a function call plus event-queue work and a
// blocked process holds no goroutine. The dynamic computation method of
// the paper removes kernel events; this kernel makes the savings
// measurable, and a handler is the cheapest activation that still pays
// for every event.
//
// The kernel is strictly deterministic: simultaneous events are processed
// in scheduling order (FIFO by sequence number), and only one process ever
// executes at a time.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation instant or duration in integer ticks (1 tick = 1 ns
// by convention throughout this repository).
type Time int64

// Forever may be passed to Kernel.Run as the time limit to run until the
// event queue drains.
const Forever Time = math.MaxInt64

// Stats counts the kernel work performed during a run. The paper's "number
// of simulation events" corresponds to TimedEvents + DeltaNotifies, and its
// "context switches" to Activations.
type Stats struct {
	Activations   int64 // handler calls (context switches)
	TimedEvents   int64 // entries pushed on the time-ordered event queue
	DeltaNotifies int64 // immediate notifications
	FinalTime     Time  // simulation time when Run returned
}

// Events returns the total kernel event-queue work, the paper's "number
// of simulation events": timed events plus delta notifications.
func (s Stats) Events() int64 { return s.TimedEvents + s.DeltaNotifies }

// Kernel is a discrete-event simulator instance. Create one with New,
// spawn processes, then call Run. A Kernel must not be used from multiple
// goroutines; handlers interact with it only through their Proc.
type Kernel struct {
	now      Time
	queue    eventQueue
	runnable []*Proc // ready at the current time, FIFO order
	runHead  int     // next runnable index; the drained prefix is reused
	cur      *Proc   // the process being activated
	seq      int64
	running  bool
	failure  error
	stats    Stats
}

// New returns an empty kernel at time zero.
func New() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Stats returns the counters accumulated so far.
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.FinalTime = k.now
	return s
}

// Spawn registers a process with the given name and handler. The kernel
// calls the handler at simulation time zero, in spawn order, and again
// each time the trigger it armed fires. Spawn must be called before Run.
func (k *Kernel) Spawn(name string, handler func(p *Proc)) *Proc {
	if k.running {
		panic("sim: Spawn called while kernel is running")
	}
	p := &Proc{name: name, k: k, handler: handler}
	// Every process gets an initial activation at time zero.
	k.push(0, entry{wake: p})
	return p
}

// entry is a scheduled occurrence: either waking a process or firing an
// event (releasing its waiters).
type entry struct {
	wake *Proc
	fire *Event
}

type queued struct {
	t   Time
	seq int64
	e   entry
}

// eventQueue is a binary min-heap ordered by (time, sequence). It is
// hand-rolled rather than container/heap because the interface-based
// heap boxes every pushed entry into an allocation; with a flat slice
// the steady-state simulation loop schedules events without allocating.
type eventQueue []queued

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			return
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

func (k *Kernel) push(t Time, e entry) {
	k.seq++
	k.queue = append(k.queue, queued{t: t, seq: k.seq, e: e})
	k.queue.up(len(k.queue) - 1)
	k.stats.TimedEvents++
}

// popMin removes and returns the earliest queued entry.
func (k *Kernel) popMin() queued {
	q := k.queue
	it := q[0]
	last := len(q) - 1
	q[0] = q[last]
	k.queue = q[:last]
	k.queue.down(0)
	return it
}

// Fail stops the run with err once the calling handler returns; Run
// returns the first failure.
func (k *Kernel) Fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
}

// Run executes the simulation until the event queue drains, the time limit
// is exceeded, or a process fails. It returns the first process failure,
// if any; a handler's panic is one, naming the process. No handler is
// called once Run has returned.
func (k *Kernel) Run(limit Time) (err error) {
	if k.running {
		return fmt.Errorf("sim: Run reentered")
	}
	k.running = true
	defer func() {
		if r := recover(); r != nil {
			k.Fail(fmt.Errorf("sim: process %q panicked: %v", k.cur.name, r))
		}
		k.cur = nil
		k.running = false
		err = k.failure
	}()

	for k.failure == nil {
		// Drain the runnable set of the current delta. Activated
		// processes may append more runnables; the head index walks the
		// growing slice, and the drained storage is reclaimed for the
		// next delta instead of sliding (and reallocating) forward.
		for k.runHead < len(k.runnable) && k.failure == nil {
			p := k.runnable[k.runHead]
			k.runHead++
			k.activate(p)
		}
		k.runnable = k.runnable[:0]
		k.runHead = 0
		if k.failure != nil || len(k.queue) == 0 {
			break
		}
		next := k.queue[0].t
		if next > limit {
			k.now = limit
			break
		}
		it := k.popMin()
		k.now = it.t
		k.dispatch(it.e)
	}
	return k.failure
}

func (k *Kernel) dispatch(e entry) {
	switch {
	case e.wake != nil:
		k.runnable = append(k.runnable, e.wake)
	case e.fire != nil:
		e.fire.release()
	}
}

// activate calls p's handler once. A call that arms no trigger leaves
// the process in no queue and no event, which ends it.
func (k *Kernel) activate(p *Proc) {
	k.stats.Activations++
	k.cur = p
	p.armed = false
	p.handler(p)
}
