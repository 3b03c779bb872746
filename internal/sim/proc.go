package sim

import "fmt"

// Proc is a simulation process: a handler the kernel calls once per
// activation. Its arming methods must be called from within the
// handler's call, at most one of them per call; the trigger fires the
// next call.
type Proc struct {
	name    string
	k       *Kernel
	handler func(p *Proc)
	armed   bool // the current call armed its trigger
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.now }

// arm marks the current call's trigger armed; a second one fails the
// run.
func (p *Proc) arm() bool {
	if p.armed {
		p.k.Fail(fmt.Errorf("sim: process %q armed two triggers in one activation", p.name))
		return false
	}
	p.armed = true
	return true
}

// After calls the handler again after the duration d (which must be
// non-negative). A zero duration still goes through the kernel,
// consuming one event, exactly like SystemC's wait(SC_ZERO_TIME).
func (p *Proc) After(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %d in process %q", d, p.name))
	}
	if p.arm() {
		p.k.push(p.k.now+d, entry{wake: p})
	}
}

// At calls the handler again at absolute time t; if t is in the past it
// degrades to a zero wait.
func (p *Proc) At(t Time) {
	p.After(max(t-p.k.now, 0))
}

// On calls the handler again when e is notified. Notifications that
// occur while no process is waiting are lost (SystemC semantics).
func (p *Proc) On(e *Event) {
	if p.arm() {
		e.waiters = append(e.waiters, p)
	}
}

// Event is a named synchronization point processes can wait on.
type Event struct {
	name    string
	k       *Kernel
	waiters []*Proc
}

// NewEvent creates an event owned by the kernel.
func (k *Kernel) NewEvent(name string) *Event {
	return &Event{name: name, k: k}
}

// Name returns the event name.
func (e *Event) Name() string { return e.name }

// Notify wakes every process currently waiting on e in FIFO order, in the
// current delta cycle (still at the current simulation time).
func (e *Event) Notify() {
	e.k.stats.DeltaNotifies++
	e.release()
}

// NotifyAfter schedules the event to fire after duration d.
func (e *Event) NotifyAfter(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative notify delay %d for event %q", d, e.name))
	}
	e.k.push(e.k.now+d, entry{fire: e})
}

// NotifyAt schedules the event to fire at absolute time t (clamped to the
// current time if already past).
func (e *Event) NotifyAt(t Time) {
	e.NotifyAfter(max(t-e.k.now, 0))
}

// release moves all waiters to the runnable set and clears the list.
func (e *Event) release() {
	e.k.runnable = append(e.k.runnable, e.waiters...)
	e.waiters = e.waiters[:0]
}
