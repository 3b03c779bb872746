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
	k     int
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
		fn := f
		b.kernel.Spawn(fn.Name, func(p *sim.Proc) {
			b.runFunction(p, fn, ends[fn.Resource], endEv[fn.Resource])
		})
	}
	for _, s := range b.arch.Sources {
		src := s
		ch := b.chans[s.Ch]
		b.kernel.Spawn(src.Name, func(p *sim.Proc) {
			for k := 0; k < src.Count; k++ {
				u := src.Schedule(k)
				p.WaitUntil(sim.Time(u))
				tok := src.Tokens(k)
				tok.K = k
				ch.push(tok, p.Now())
			}
		})
	}
	for _, s := range b.arch.Sinks {
		ch := b.chans[s.Ch]
		b.kernel.Spawn(s.Name, func(p *sim.Proc) {
			local := p.Now()
			for {
				_, local = ch.pop(p, local)
			}
		})
	}
}

func (c *ltChan) push(tok model.Token, ts sim.Time) {
	c.buf = append(c.buf, stamped{tok: tok, ts: ts})
	c.ev.Notify()
}

// pop consumes the next token, advancing the caller's local clock to the
// (already quantized) producer timestamp and recording the approximate
// transfer instant.
func (c *ltChan) pop(p *sim.Proc, local sim.Time) (model.Token, sim.Time) {
	for len(c.buf) == 0 {
		// Flush local time before blocking: the kernel must not see this
		// process in the past. A push may land during the flush, so
		// re-check before committing to an event wait.
		if local > p.Now() {
			p.WaitUntil(local)
			continue
		}
		p.WaitEvent(c.ev)
	}
	it := c.buf[0]
	c.buf = c.buf[1:]
	if it.ts > local {
		local = it.ts
	}
	if c.trace != nil {
		c.trace.RecordInstant(c.name, maxplus.T(local))
	}
	c.k++
	return it.tok, local
}

func (b *builder) runFunction(p *sim.Proc, f *model.Function, ends map[int]sim.Time, endEv *sim.Event) {
	m := len(f.Resource.Rotation)
	c := f.Resource.Concurrency
	if c < 1 {
		c = 1
	}
	if c > m {
		c = m
	}
	var cur model.Token
	local := p.Now()
	for k := 0; ; k++ {
		turn := k*m + f.RotIndex
		// Rotation gate against recorded local end timestamps; blocked
		// only until the predecessor has been scheduled at all.
		if gate := turn - c; gate >= 0 {
			for {
				end, ok := ends[gate]
				if ok {
					if end > local {
						local = end
					}
					delete(ends, gate)
					break
				}
				if local > p.Now() {
					p.WaitUntil(local)
					continue // the end may have been recorded meanwhile
				}
				p.WaitEvent(endEv)
			}
		}
		for _, st := range f.Body {
			switch s := st.(type) {
			case model.Read:
				cur, local = b.chans[s.Ch].pop(p, local)
			case model.Write:
				// Temporal decoupling: the writer does not wait for the
				// reader; the timestamp is quantized at the boundary.
				b.chans[s.Ch].push(cur, b.quantize(local))
			case model.Exec:
				dur, err := f.Resource.Duration(s.Cost(cur))
				if err != nil {
					p.Kernel().Fail(fmt.Errorf("ltdecoup: execute %q of %q, iteration %d: %w", s.Label, f.Name, k, err))
					return
				}
				if b.trace != nil {
					b.trace.RecordActivity(observe.Activity{
						Resource: f.Resource.Name,
						Label:    s.Label,
						K:        k,
						Start:    maxplus.T(local),
						End:      maxplus.Otimes(maxplus.T(local), dur),
						Ops:      s.Cost(cur).Ops,
					})
				}
				local += sim.Time(dur)
				// Sync with the kernel only past the quantum.
				if local-p.Now() >= b.quantum {
					p.WaitUntil(local)
				}
			}
		}
		ends[turn] = b.quantize(local)
		endEv.Notify()
	}
}
