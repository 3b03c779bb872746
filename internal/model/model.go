// Package model describes performance models of multi-core architectures:
// an application of dataflow functions exchanging tokens over channels, a
// platform of processing resources, and a mapping layer allocating
// functions to resources (Fig. 1 of the paper).
//
// The modelling semantics are those implied by the paper's equations
// (1)-(6):
//
//   - functions are statically scheduled and non-preemptive; each body is a
//     fixed cyclic sequence of read / execute / write statements processing
//     one token per iteration (single-rate dataflow);
//   - channels use a rendezvous protocol by default (writer and reader wait
//     on each other; the transfer instant is the max of both ready
//     instants); bounded FIFO channels are supported as an extension;
//   - a resource runs its mapped functions in a fixed rotation; with
//     concurrency 1 (a processor) the rotation is fully serialized, with
//     concurrency equal to the number of mapped functions (dedicated
//     hardware) the functions evolve independently;
//   - execution durations are data dependent, derived from per-statement
//     operation counts evaluated on the token being processed and the
//     speed of the executing resource.
//
// A model.Architecture is consumed by two engines that must agree exactly:
// the event-driven reference executor (internal/baseline) and the temporal
// dependency graph derivation (internal/derive) feeding the equivalent
// model (internal/core).
package model

import (
	"errors"
	"fmt"
	"math"

	"dyncomp/internal/maxplus"
)

// Token is one unit of data flowing through the application. Tokens are
// produced by sources and passed through unchanged by functions, so the
// k-th iteration of every function processes attributes that trace back to
// the k-th token of a source.
type Token struct {
	K     int       // iteration index, assigned by the source
	Size  int64     // payload size in bytes; the default cost driver
	Attrs []float64 // workload-specific parameters (e.g. LTE frame config)
}

// Attr returns Attrs[i], or 0 when absent, so cost functions can be written
// without bounds checks.
func (t Token) Attr(i int) float64 {
	if i < 0 || i >= len(t.Attrs) {
		return 0
	}
	return t.Attrs[i]
}

// Load is the computation demand of one execute statement.
type Load struct {
	Ops float64 // number of operations; duration = Ops / resource speed
}

// CostFn computes the load an execute statement places on its resource for
// a given token. Implementations must be pure: the same token must always
// yield the same load, because the reference simulator and the equivalent
// model both evaluate it and their instants are compared bit-exact.
type CostFn func(tok Token) Load

// FixedOps returns a CostFn with a constant operation count.
func FixedOps(ops float64) CostFn {
	return func(Token) Load { return Load{Ops: ops} }
}

// OpsPerByte returns a CostFn of the form base + perByte·Size.
func OpsPerByte(base, perByte float64) CostFn {
	return func(t Token) Load { return Load{Ops: base + perByte*float64(t.Size)} }
}

// ResourceKind distinguishes sequential processors from concurrent
// dedicated hardware.
type ResourceKind int

// Resource kinds.
const (
	// Processor executes one mapped function at a time (concurrency 1) in
	// a fixed rotation — the P1 of the didactic example.
	Processor ResourceKind = iota
	// Hardware provides one dedicated unit per mapped function
	// (concurrency = number of mapped functions) — the P2 of the example.
	Hardware
)

func (k ResourceKind) String() string {
	switch k {
	case Processor:
		return "processor"
	case Hardware:
		return "hardware"
	default:
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
}

// Resource is a processing resource of the platform.
type Resource struct {
	Name      string
	Kind      ResourceKind
	OpsPerSec float64 // processing speed

	// Rotation is the static schedule: the mapped functions in turn order.
	// It is filled by Architecture.Map.
	Rotation []*Function

	// Concurrency is the number of turns that may be active at once;
	// resolved during Validate (1 for Processor, len(Rotation) for
	// Hardware).
	Concurrency int
}

// Ticks converts a load into an execution duration in ticks
// (nanoseconds) on this resource, rounding to the nearest tick, and
// reports whether the tick count is a duration: at least 0 and below
// 2^63. Where it is not, Duration decides: a load of no operations takes
// no time, and any other fails with ErrDurationRange. Ticks is the one
// conversion every engine uses, so that instants agree; it is small
// enough to inline into the loops that convert every execution, which
// Duration is not.
func (r *Resource) Ticks(l Load) (maxplus.T, bool) {
	t := math.Round(l.Ops / r.OpsPerSec * 1e9)
	return maxplus.T(t), 0 <= t && t < 1<<63
}

// Duration is Ticks with the loads it declines decided: no operations
// (Ops <= 0) take no time, and a load whose tick count is NaN, negative,
// infinite or at least 2^63 fails with ErrDurationRange instead of
// converting to an undefined instant (ε on most platforms). A negative
// tick count needs a negative speed, which Validate rejects.
func (r *Resource) Duration(l Load) (maxplus.T, error) {
	d, ok := r.Ticks(l)
	switch {
	case ok:
		return d, nil
	case l.Ops <= 0:
		return 0, nil
	}
	// Rounding is the identity on NaN, infinite and at least 2^63 tick
	// counts, so the message shows the unrounded figure: the tick count
	// itself except for a negative speed.
	return 0, fmt.Errorf("%w: %g ops on %q is %g ns", ErrDurationRange, l.Ops, r.Name, l.Ops/r.OpsPerSec*1e9)
}

// DurationOf is Duration for a load known to be in range; an out-of-range
// one converts to 0.
func (r *Resource) DurationOf(l Load) maxplus.T {
	d, _ := r.Duration(l)
	return d
}

// ErrDurationRange reports an execution whose duration does not fit an
// int64 tick count. Every engine fails the run with it.
var ErrDurationRange = errors.New("model: execution duration out of range")

// ChannelKind selects the communication protocol of a channel.
type ChannelKind int

// Channel kinds.
const (
	// Rendezvous blocks both sides until the transfer happens.
	Rendezvous ChannelKind = iota
	// FIFO buffers up to Capacity tokens; the writer blocks only when the
	// buffer is full, the reader when it is empty.
	FIFO
)

func (k ChannelKind) String() string {
	switch k {
	case Rendezvous:
		return "rendezvous"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("ChannelKind(%d)", int(k))
	}
}

// Channel is a point-to-point relation between two endpoints (functions,
// a source, or a sink).
type Channel struct {
	Name     string
	Kind     ChannelKind
	Capacity int // FIFO only

	// Resolved during Validate.
	WriterFunc *Function // nil when written by a source
	ReaderFunc *Function // nil when read by a sink
	Source     *Source   // non-nil when fed by a source
	Sink       *Sink     // non-nil when drained by a sink
}

// Stmt is one statement of a function body: Read, Exec or Write.
type Stmt interface {
	stmtKind() string
}

// Read blocks until a token is available on the channel and consumes it.
type Read struct{ Ch *Channel }

// Write offers the function's current token on the channel.
type Write struct{ Ch *Channel }

// Exec occupies the function's resource for the duration given by Cost
// applied to the current token.
type Exec struct {
	Label string // duration name, e.g. "Ti1"; used in traces and the TDG
	Cost  CostFn
}

func (Read) stmtKind() string  { return "read" }
func (Write) stmtKind() string { return "write" }
func (Exec) stmtKind() string  { return "exec" }

// Function is one application function: a named cyclic sequence of
// statements.
type Function struct {
	Name string
	Body []Stmt

	// Resolved during Validate / Map.
	Resource *Resource
	// RotIndex is the function's position in its resource's rotation.
	RotIndex int
}

// ScheduleFn gives the instant u(k) at which a source tries to produce its
// k-th token.
type ScheduleFn func(k int) maxplus.T

// Periodic returns the schedule u(k) = offset + k·period.
func Periodic(period, offset maxplus.T) ScheduleFn {
	return func(k int) maxplus.T {
		return maxplus.Otimes(offset, maxplus.T(int64(k)*int64(period)))
	}
}

// Eager returns the schedule u(k) = 0: the source is always ready and the
// production rate is set entirely by downstream backpressure.
func Eager() ScheduleFn {
	return func(int) maxplus.T { return 0 }
}

// TokenFn generates the k-th token of a source. It must be deterministic.
type TokenFn func(k int) Token

// Source is an environment process producing tokens into a channel.
type Source struct {
	Name     string
	Ch       *Channel
	Schedule ScheduleFn
	Tokens   TokenFn
	Count    int // number of tokens to produce; must be positive
}

// TokenAt returns the source's k-th token stamped with its iteration.
func (s *Source) TokenAt(k int) Token {
	tok := s.Tokens(k)
	tok.K = k
	return tok
}

// Sink is an environment process that is always ready to consume tokens
// from a channel.
type Sink struct {
	Name string
	Ch   *Channel
}

// Architecture is a complete performance model: application, platform and
// mapping. Build one with NewArchitecture and the Add/Map methods, then
// call Validate before handing it to an execution engine.
type Architecture struct {
	Name      string
	Functions []*Function
	Channels  []*Channel
	Sources   []*Source
	Sinks     []*Sink
	Resources []*Resource

	validated bool
}

// NewArchitecture creates an empty named architecture.
func NewArchitecture(name string) *Architecture {
	return &Architecture{Name: name}
}

// AddChannel declares a channel. Capacity is ignored for rendezvous
// channels.
func (a *Architecture) AddChannel(name string, kind ChannelKind, capacity int) *Channel {
	ch := &Channel{Name: name, Kind: kind, Capacity: capacity}
	a.Channels = append(a.Channels, ch)
	a.validated = false
	return ch
}

// AddFunction declares an application function with the given body.
func (a *Architecture) AddFunction(name string, body ...Stmt) *Function {
	f := &Function{Name: name, Body: body}
	a.Functions = append(a.Functions, f)
	a.validated = false
	return f
}

// AddProcessor declares a sequential processing resource.
func (a *Architecture) AddProcessor(name string, opsPerSec float64) *Resource {
	r := &Resource{Name: name, Kind: Processor, OpsPerSec: opsPerSec}
	a.Resources = append(a.Resources, r)
	a.validated = false
	return r
}

// AddHardware declares a dedicated hardware resource with one unit per
// mapped function.
func (a *Architecture) AddHardware(name string, opsPerSec float64) *Resource {
	r := &Resource{Name: name, Kind: Hardware, OpsPerSec: opsPerSec}
	a.Resources = append(a.Resources, r)
	a.validated = false
	return r
}

// Map allocates functions to a resource; the argument order defines the
// static rotation (schedule) on that resource.
func (a *Architecture) Map(r *Resource, fns ...*Function) {
	for _, f := range fns {
		f.Resource = r
		f.RotIndex = len(r.Rotation)
		r.Rotation = append(r.Rotation, f)
	}
	a.validated = false
}

// AddSource declares an environment source feeding ch.
func (a *Architecture) AddSource(name string, ch *Channel, sched ScheduleFn, tokens TokenFn, count int) *Source {
	s := &Source{Name: name, Ch: ch, Schedule: sched, Tokens: tokens, Count: count}
	a.Sources = append(a.Sources, s)
	a.validated = false
	return s
}

// AddSink declares an environment sink draining ch.
func (a *Architecture) AddSink(name string, ch *Channel) *Sink {
	s := &Sink{Name: name, Ch: ch}
	a.Sinks = append(a.Sinks, s)
	a.validated = false
	return s
}
