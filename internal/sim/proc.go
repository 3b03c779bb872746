package sim

import "fmt"

// Proc is a simulation process. Its body function receives the Proc and
// uses it to wait for durations or events. All Proc methods must be called
// from within the body (they yield control back to the kernel); calling
// them from outside a running simulation panics or deadlocks by design.
type Proc struct {
	name  string
	k     *Kernel
	next  func() (struct{}, bool) // resumes the body until it parks
	stop  func()                  // makes a parked body's yield report false
	yield func(struct{}) bool     // parks the body, set when it starts
	done  bool
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.now }

// park yields control to the kernel and returns when resumed. If the
// kernel is shutting down it aborts the process via stopSignal.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(stopSignal{})
	}
}

// Wait suspends the process for the duration d (which must be
// non-negative). A zero wait still yields through the kernel, consuming
// one event, exactly like SystemC's wait(SC_ZERO_TIME).
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %d in process %q", d, p.name))
	}
	p.k.push(p.k.now+d, entry{wake: p})
	p.park()
}

// WaitUntil suspends the process until absolute time t; if t is in the
// past it degrades to a zero wait.
func (p *Proc) WaitUntil(t Time) {
	d := t - p.k.now
	if d < 0 {
		d = 0
	}
	p.Wait(d)
}

// WaitEvent suspends the process until e is notified. Notifications that
// occur while no process is waiting are lost (SystemC semantics).
func (p *Proc) WaitEvent(e *Event) {
	e.waiters = append(e.waiters, p)
	p.park()
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
	d := t - e.k.now
	if d < 0 {
		d = 0
	}
	e.NotifyAfter(d)
}

// release moves all waiters to the runnable set and clears the list.
func (e *Event) release() {
	for _, p := range e.waiters {
		if !p.done {
			e.k.runnable = append(e.k.runnable, p)
		}
	}
	e.waiters = e.waiters[:0]
}
