// Package baseline is the event-driven reference executor: it compiles an
// architecture model onto the discrete-event kernel with one simulation
// process per application function, exhibiting every relation among
// functions as kernel events — the "first model" that Section V of the
// paper compares against.
//
// Its semantics are exactly those of the temporal-dependency-graph
// derivation (internal/derive): rendezvous/FIFO transfer instants, static
// rotation of mapped functions with windowed concurrency, data-dependent
// execution durations. The recorded evolution instants of the two engines
// must agree bit-exact; integration tests enforce this.
package baseline

import (
	"fmt"

	"dyncomp/internal/chanrt"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// Options configures a baseline run.
type Options struct {
	// Trace, when non-nil, records evolution instants and resource
	// activity. Recording costs time; benchmark runs leave it nil.
	Trace *observe.Trace
	// Limit bounds simulation time; zero means run until the event queue
	// drains (all source tokens consumed).
	Limit sim.Time
	// IterLimit, when positive, bounds the evolution to iterations
	// [0, IterLimit): every source stops after token IterLimit-1.
	IterLimit int
}

// Result reports a completed run.
type Result struct {
	Stats sim.Stats
	Trace *observe.Trace
}

// Run simulates the architecture event-by-event until every source is
// exhausted and the pipeline has drained. The architecture must validate.
func Run(a *model.Architecture, opts Options) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = sim.Forever
	}

	k := sim.New()
	if err := Attach(k, a, AttachOptions{Trace: opts.Trace, IterLimit: opts.IterLimit}); err != nil {
		return nil, err
	}
	if err := k.Run(limit); err != nil {
		return nil, err
	}
	return &Result{Stats: k.Stats(), Trace: opts.Trace}, nil
}

// AttachOptions configures Attach.
type AttachOptions struct {
	// Trace records instants and activities of the attached processes.
	Trace *observe.Trace
	// Skip excludes functions from spawning (their channels still get
	// runtimes unless provided). Partial abstraction replaces the skipped
	// group with an equivalent model.
	Skip func(f *model.Function) bool
	// Chans supplies pre-created runtimes for specific channels (boundary
	// channels of a partial abstraction); missing channels get fresh
	// runtimes recording into Trace, which Attach adds to Chans when it
	// is non-nil.
	Chans map[*model.Channel]chanrt.RT
	// SkipChannel excludes channels entirely (internal channels of an
	// abstracted group).
	SkipChannel func(ch *model.Channel) bool
	// IterLimit, when positive, stops every source after token IterLimit-1,
	// bounding the evolution to iterations [0, IterLimit).
	IterLimit int
}

// Attach spawns event-driven processes for the architecture's functions,
// sources and sinks onto an existing kernel. The architecture must have
// been validated. Partial setups (hybrid models) use Skip/Chans to carve
// out the abstracted group.
func Attach(k *sim.Kernel, a *model.Architecture, opts AttachOptions) error {
	b := &builder{arch: a, kernel: k, trace: opts.Trace, chans: opts.Chans}
	if b.chans == nil {
		b.chans = map[*model.Channel]chanrt.RT{}
	}
	return b.build(opts)
}

type builder struct {
	arch   *model.Architecture
	kernel *sim.Kernel
	trace  *observe.Trace
	chans  map[*model.Channel]chanrt.RT
}

func (b *builder) build(opts AttachOptions) error {
	for _, ch := range b.arch.Channels {
		if _, ok := b.chans[ch]; ok {
			continue
		}
		if opts.SkipChannel != nil && opts.SkipChannel(ch) {
			continue
		}
		b.chans[ch] = chanrt.New(b.kernel, ch, b.trace)
	}

	var resources map[*model.Resource]*resourceRT
	for _, f := range b.arch.Functions {
		if opts.Skip != nil && opts.Skip(f) {
			continue
		}
		if resources == nil {
			resources = map[*model.Resource]*resourceRT{}
		}
		if _, ok := resources[f.Resource]; !ok {
			resources[f.Resource] = newResourceRT(b.kernel, f.Resource)
		}
		body, err := b.resolve(f)
		if err != nil {
			return err
		}
		fn := &function{b: b, f: f, body: body, rt: resources[f.Resource], skip: GateSkipped(f), m: len(f.Resource.Rotation), pc: -1}
		// Bodies ending in an Exec have no transfer marking the turn
		// end; a trace records the auxiliary end instant for comparison
		// with the equivalent model.
		if b.trace != nil && body[len(body)-1].ch == nil {
			fn.endLabel = "end:" + f.Name
		}
		b.kernel.Spawn(f.Name, fn.run)
	}

	for _, s := range b.arch.Sources {
		ch := b.chans[s.Ch]
		if ch == nil {
			return fmt.Errorf("baseline: source %q has no channel runtime", s.Name)
		}
		src := &source{src: s, ch: ch, last: s.Count}
		if opts.IterLimit > 0 && opts.IterLimit < src.last {
			src.last = opts.IterLimit
		}
		b.kernel.Spawn(s.Name, src.run)
	}

	for _, s := range b.arch.Sinks {
		ch := b.chans[s.Ch]
		if ch == nil {
			return fmt.Errorf("baseline: sink %q has no channel runtime", s.Name)
		}
		b.kernel.Spawn(s.Name, func(p *sim.Proc) {
			for {
				if _, _, ok := ch.Read(p); !ok {
					return
				}
			}
		})
	}
	return nil
}

// source is the process of an environment source: for each token, wait
// for its scheduled instant, then write it.
type source struct {
	src     *model.Source
	ch      chanrt.RT
	last    int // tokens to write
	k       int // the token to write next
	writing bool
	tok     model.Token
}

func (s *source) run(p *sim.Proc) {
	if s.writing {
		if !s.ch.Write(p, s.tok) {
			return
		}
		s.writing = false
		s.k++
	}
	if s.k == s.last {
		return
	}
	u := s.src.Schedule(s.k)
	if u.IsEpsilon() {
		panic(fmt.Sprintf("baseline: source %q schedule(%d) is ε", s.src.Name, s.k))
	}
	s.writing, s.tok = true, s.src.TokenAt(s.k)
	p.At(sim.Time(u))
}

// step is one body statement resolved once, before the run: a transfer
// on a channel runtime, or an execution.
type step struct {
	ch   chanrt.RT  // the Read's or Write's runtime
	read bool       // a Read; a Write when false and ch is set
	exec model.Exec // when ch is nil
}

// resolve binds f's body to the channel runtimes.
func (b *builder) resolve(f *model.Function) ([]step, error) {
	body := make([]step, len(f.Body))
	for i, st := range f.Body {
		var ch *model.Channel
		switch s := st.(type) {
		case model.Read:
			ch, body[i].read = s.Ch, true
		case model.Write:
			ch = s.Ch
		case model.Exec:
			body[i].exec = s
			continue
		}
		if body[i].ch = b.chans[ch]; body[i].ch == nil {
			return nil, fmt.Errorf("baseline: function %q uses channel %q, which has no runtime", f.Name, ch.Name)
		}
	}
	return body, nil
}

// function is the process of one application function: in iteration k,
// acquire the turn in the resource rotation, run the body statements,
// release the turn. pc is the statement to run next, -1 the turn gate;
// cur is the token last read. An execution whose duration is out of
// range fails the run.
type function struct {
	b        *builder
	f        *model.Function
	body     []step
	rt       *resourceRT
	skip     bool
	m        int // rotation length
	endLabel string

	k   int
	pc  int
	cur model.Token
}

// run carries the function forward until it blocks: on the turn gate,
// on a transfer, or for an execution's duration.
func (fn *function) run(p *sim.Proc) {
	for {
		turn := fn.k*fn.m + fn.f.RotIndex
		if fn.pc < 0 {
			if !fn.rt.gateOpen(p, turn, fn.skip) {
				return
			}
			fn.pc = 0
		}
		for fn.pc < len(fn.body) {
			st := &fn.body[fn.pc]
			switch {
			case st.read:
				tok, _, ok := st.ch.Read(p)
				if !ok {
					return
				}
				fn.cur = tok
			case st.ch != nil:
				if !st.ch.Write(p, fn.cur) {
					return
				}
			default:
				fn.pc++
				if fn.exec(p, st.exec) {
					return
				}
				continue
			}
			fn.pc++
		}
		if fn.endLabel != "" {
			fn.b.trace.RecordInstant(fn.endLabel, maxplus.T(p.Now()))
		}
		fn.rt.endTurn(turn, fn.f.RotIndex)
		fn.k, fn.pc = fn.k+1, -1
	}
}

// exec runs an execution of the current iteration and reports whether
// the process armed its end or failed the run: either ends the call.
func (fn *function) exec(p *sim.Proc, ex model.Exec) bool {
	load := ex.Cost(fn.cur)
	dur, ok := fn.f.Resource.Ticks(load)
	if !ok {
		var err error
		if dur, err = fn.f.Resource.Duration(load); err != nil {
			p.Kernel().Fail(fmt.Errorf("baseline: execute %q of %q, iteration %d: %w", ex.Label, fn.f.Name, fn.k, err))
			return true
		}
	}
	if fn.b.trace != nil {
		now := maxplus.T(p.Now())
		fn.b.trace.RecordActivity(observe.Activity{
			Resource: fn.f.Resource.Name,
			Label:    ex.Label,
			K:        fn.k,
			Start:    now,
			End:      maxplus.Otimes(now, dur),
			Ops:      load.Ops,
		})
	}
	if dur > 0 {
		p.After(sim.Time(dur))
		return true
	}
	return false
}
