// Package ltdecoup emulates the loosely-timed (TLM-LT) coding style with
// temporal decoupling that Section I of the paper discusses as the
// standard way to reduce simulation events — and criticises for its
// accuracy loss: "too large a [global quantum] value can lead to degraded
// timing accuracy because delays due to access conflicts to shared
// resources are not simulated."
//
// Each function process runs ahead on a local clock and synchronizes with
// the kernel only when it runs more than the global quantum ahead.
// Cross-process timestamps are quantized to the quantum grid, and writers
// do not block on rendezvous backpressure — the two classic sources of
// loosely-timed inaccuracy. The result is a knob: larger quanta save
// events (speed) and distort evolution instants (accuracy), which the
// benchmarks compare against the dynamic computation method's exact
// results.
package ltdecoup

import (
	"fmt"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// Options configures a loosely-timed run.
type Options struct {
	// Quantum is the temporal decoupling quantum in ticks; processes sync
	// with the kernel when their local clock runs further ahead. Must be
	// positive.
	Quantum sim.Time
	// Trace records the (approximate) evolution instants.
	Trace *observe.Trace
	// Limit bounds simulation time; zero means run to completion.
	Limit sim.Time
}

// Result reports a completed run.
type Result struct {
	Stats sim.Stats
	Trace *observe.Trace
}

// Run simulates the architecture with temporal decoupling.
func Run(a *model.Architecture, opts Options) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if opts.Quantum <= 0 {
		return nil, fmt.Errorf("ltdecoup: quantum must be positive, got %d", opts.Quantum)
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = sim.Forever
	}
	k := sim.New()
	b := &builder{
		arch:    a,
		kernel:  k,
		quantum: opts.Quantum,
		trace:   opts.Trace,
		chans:   map[*model.Channel]*ltChan{},
	}
	b.build()
	if err := k.Run(limit); err != nil {
		return nil, err
	}
	return &Result{Stats: k.Stats(), Trace: opts.Trace}, nil
}

// ltChan is a decoupled channel: writes never block (the rendezvous
// backpressure is lost) and carry quantized local timestamps.
type ltChan struct {
	name  string
	buf   []stamped
	ev    *sim.Event
	trace *observe.Trace
}

type stamped struct {
	tok model.Token
	ts  sim.Time
}

type builder struct {
	arch    *model.Architecture
	kernel  *sim.Kernel
	quantum sim.Time
	trace   *observe.Trace
	chans   map[*model.Channel]*ltChan
}

// quantize rounds a cross-process timestamp up to the quantum grid.
func (b *builder) quantize(t sim.Time) sim.Time {
	q := b.quantum
	return (t + q - 1) / q * q
}

func (b *builder) build() {
	for _, ch := range b.arch.Channels {
		b.chans[ch] = &ltChan{name: ch.Name, ev: b.kernel.NewEvent(ch.Name), trace: b.trace}
	}
	// Per-resource end-of-turn local timestamps for the rotation gate.
	ends := map[*model.Resource]map[int]sim.Time{}
	endEv := map[*model.Resource]*sim.Event{}
	for _, r := range b.arch.Resources {
		ends[r] = map[int]sim.Time{}
		endEv[r] = b.kernel.NewEvent("turn:" + r.Name)
	}

	for _, f := range b.arch.Functions {
		m := len(f.Resource.Rotation)
		fn := &function{b: b, f: f, m: m, c: min(max(f.Resource.Concurrency, 1), m),
			ends: ends[f.Resource], endEv: endEv[f.Resource], pc: -1}
		b.kernel.Spawn(f.Name, fn.run)
	}
	for _, s := range b.arch.Sources {
		src := &source{src: s, ch: b.chans[s.Ch]}
		b.kernel.Spawn(s.Name, src.run)
	}
	for _, s := range b.arch.Sinks {
		ch := b.chans[s.Ch]
		var local sim.Time
		b.kernel.Spawn(s.Name, func(p *sim.Proc) {
			for ch.ready(p, local) {
				_, local = ch.pop(local)
			}
		})
	}
}

// source is the process of an environment source: for each token, wait
// for its scheduled instant, then push it.
type source struct {
	src    *model.Source
	ch     *ltChan
	k      int
	waited bool // the schedule of token k was reached
}

func (s *source) run(p *sim.Proc) {
	if s.waited {
		tok := s.src.Tokens(s.k)
		tok.K = s.k
		s.ch.push(tok, p.Now())
		s.k, s.waited = s.k+1, false
	}
	if s.k < s.src.Count {
		s.waited = true
		p.At(sim.Time(s.src.Schedule(s.k)))
	}
}

func (c *ltChan) push(tok model.Token, ts sim.Time) {
	c.buf = append(c.buf, stamped{tok: tok, ts: ts})
	c.ev.Notify()
}

// ready reports whether a token is there to pop. When there is none, it
// arms p to check again, flushing its local time first: the kernel must
// not see the process in the past, and a push may land during the flush.
func (c *ltChan) ready(p *sim.Proc, local sim.Time) bool {
	if len(c.buf) > 0 {
		return true
	}
	block(p, local, c.ev)
	return false
}

// block arms p at its local time when that is ahead of the kernel's,
// and on ev otherwise.
func block(p *sim.Proc, local sim.Time, ev *sim.Event) {
	if local > p.Now() {
		p.At(local)
	} else {
		p.On(ev)
	}
}

// pop consumes the next token, which ready reported, advancing the
// caller's local clock to the (already quantized) producer timestamp and
// recording the approximate transfer instant.
func (c *ltChan) pop(local sim.Time) (model.Token, sim.Time) {
	it := c.buf[0]
	c.buf = c.buf[1:]
	if it.ts > local {
		local = it.ts
	}
	if c.trace != nil {
		c.trace.RecordInstant(c.name, maxplus.T(local))
	}
	return it.tok, local
}

// function is the process of one application function, ahead of the
// kernel on its local clock. pc is the statement to run next, -1 the
// rotation gate; cur is the token last read.
type function struct {
	b     *builder
	f     *model.Function
	m, c  int // rotation length, effective concurrency
	ends  map[int]sim.Time
	endEv *sim.Event

	k     int
	pc    int
	cur   model.Token
	local sim.Time
}

func (fn *function) run(p *sim.Proc) {
	b, f := fn.b, fn.f
	for {
		turn := fn.k*fn.m + f.RotIndex
		// Rotation gate against recorded local end timestamps; blocked
		// only until the predecessor has been scheduled at all.
		if fn.pc < 0 {
			if gate := turn - fn.c; gate >= 0 {
				end, ok := fn.ends[gate]
				if !ok {
					block(p, fn.local, fn.endEv) // the end may be recorded meanwhile
					return
				}
				fn.local = max(fn.local, end)
				delete(fn.ends, gate)
			}
			fn.pc = 0
		}
		for fn.pc < len(f.Body) {
			switch s := f.Body[fn.pc].(type) {
			case model.Read:
				ch := b.chans[s.Ch]
				if !ch.ready(p, fn.local) {
					return
				}
				fn.cur, fn.local = ch.pop(fn.local)
			case model.Write:
				// Temporal decoupling: the writer does not wait for the
				// reader; the timestamp is quantized at the boundary.
				b.chans[s.Ch].push(fn.cur, b.quantize(fn.local))
			case model.Exec:
				load := s.Cost(fn.cur)
				dur, ok := f.Resource.Ticks(load)
				if !ok {
					var err error
					if dur, err = f.Resource.Duration(load); err != nil {
						p.Kernel().Fail(fmt.Errorf("ltdecoup: execute %q of %q, iteration %d: %w", s.Label, f.Name, fn.k, err))
						return
					}
				}
				if b.trace != nil {
					b.trace.RecordActivity(observe.Activity{
						Resource: f.Resource.Name,
						Label:    s.Label,
						K:        fn.k,
						Start:    maxplus.T(fn.local),
						End:      maxplus.Otimes(maxplus.T(fn.local), dur),
						Ops:      load.Ops,
					})
				}
				fn.local += sim.Time(dur)
				fn.pc++
				// Sync with the kernel only past the quantum.
				if fn.local-p.Now() >= b.quantum {
					p.At(fn.local)
					return
				}
				continue
			}
			fn.pc++
		}
		fn.ends[turn] = b.quantize(fn.local)
		fn.endEv.Notify()
		fn.k, fn.pc = fn.k+1, -1
	}
}
