// Package archjson is the open, versioned JSON model format: a
// declarative architecture specification that decodes — through strict
// validation — into a model.Architecture, plus an exporter that turns
// any compiled-in architecture back into a spec. It is what lets the
// serving layer evaluate models it has never seen: the paper's whole
// point is fast evaluation of *arbitrary* multi-core designs, and a
// service that only runs compiled-in scenarios caps that at whatever
// was hard-coded.
//
// A version-1 spec mirrors model.Architecture one to one: channels
// (rendezvous or bounded FIFO), functions with cyclic read/exec/write
// bodies, processor/hardware resources with a speed, the mapping
// rotation, sources with schedules and token generators, sinks, and
// optional abstraction groups for the hybrid engine. On top of the
// structural mirror it adds what a design-space explorer needs:
// declared sweepable parameters. Any numeric field may be written as
// "$name" instead of a literal; Build resolves the reference against
// the caller's parameter binding (a sweep point, an optimizer
// candidate) falling back to the declared default. Parameters may also
// declare lumos-style area/power cost models, which EvalCost turns
// into analytic platform-cost metrics — the constraint vocabulary of
// the optimizer (internal/optimize).
//
// Costs, schedules and token streams come in two flavors: compact
// closed forms (fixed, per_byte, periodic, stream) for hand-written
// specs, and explicit per-iteration tables — what Export emits, since
// a Go closure cannot be introspected. Tables are exact: every
// operation count, instant and token attribute is a float64/int64 that
// round-trips through JSON bit for bit, so an exported scenario
// re-imported through Decode produces bit-exact evolution instants on
// every engine (the round-trip property test holds all zoo scenarios
// to that).
//
// Decode is fuzz-hardened: it never panics, bounds every dimension of
// the input (spec bytes, element counts, body lengths, table sizes)
// and reports failures as structured *Error values with stable codes,
// which the serving layer maps onto its HTTP error contract.
package archjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Version is the schema version this package reads and writes.
const Version = 1

// Size and cardinality bounds enforced by Decode, so a hostile spec is
// rejected with a structured error instead of exhausting memory.
const (
	// MaxSpecBytes bounds the encoded spec (matches the serving layer's
	// request-body cap).
	MaxSpecBytes = 1 << 20
	// maxElems bounds every top-level element list (channels, functions,
	// resources, sources, sinks, groups, parameters, mapping entries).
	maxElems = 4096
	// maxBodyStmts bounds one function body.
	maxBodyStmts = 1024
	// maxTableLen bounds one cost/schedule/token table and one declared
	// parameter value list.
	maxTableLen = 1 << 16
	// maxCount bounds a source's resolved token count.
	maxCount = 100_000_000
)

// Error codes, stable across releases: the serving layer relays them
// (and its tests pin them), so they are part of the wire contract.
const (
	// CodeInvalid reports a spec that is malformed JSON, violates the
	// schema, or fails model validation.
	CodeInvalid = "invalid_architecture"
	// CodeVersion reports a spec whose version field is not a version
	// this package reads.
	CodeVersion = "unsupported_version"
	// CodeTooLarge reports a spec exceeding MaxSpecBytes.
	CodeTooLarge = "architecture_too_large"
)

// Error is the structured decode/build failure: a stable
// machine-readable code plus a human-readable message. Every error
// returned by Decode, Build, EvalCost and Export is one of these.
type Error struct {
	Code string
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

func errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// ErrCode extracts the stable code of an archjson error ("" for any
// other error), so callers can branch without unwrapping.
func ErrCode(err error) string {
	if e, ok := err.(*Error); ok {
		return e.Code
	}
	return ""
}

// Spec is a version-1 architecture specification. The zero value is
// not usable; obtain one from Decode or Export, or fill every section
// and call Check.
type Spec struct {
	Version    int         `json:"version"`
	Name       string      `json:"name"`
	Parameters []Parameter `json:"parameters,omitempty"`
	Channels   []Channel   `json:"channels,omitempty"`
	Functions  []Function  `json:"functions,omitempty"`
	Resources  []Resource  `json:"resources,omitempty"`
	Mapping    []Mapping   `json:"mapping,omitempty"`
	Sources    []Source    `json:"sources,omitempty"`
	Sinks      []Sink      `json:"sinks,omitempty"`
	Groups     []Group     `json:"groups,omitempty"`
}

// Parameter declares one named sweepable knob: numeric fields written
// as "$name" resolve to the caller's binding of this parameter (or
// Default). Values, when present, declare the parameter's design-space
// candidates — the axes the optimizer explores. Area and Power attach
// lumos-style analytic cost models evaluated by EvalCost.
type Parameter struct {
	Name    string     `json:"name"`
	Default int64      `json:"default"`
	Values  []int64    `json:"values,omitempty"`
	Area    *CostModel `json:"area,omitempty"`
	Power   *CostModel `json:"power,omitempty"`
}

// CostModel is an analytic per-parameter platform-cost contribution:
// Base + Scale·value^Exp, with Exp defaulting to 1 when zero. Negative
// or fractional exponents (e.g. power ∝ 1/period) require a positive
// parameter value.
type CostModel struct {
	Base  float64 `json:"base,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Exp   float64 `json:"exp,omitempty"`
}

// Channel kinds and resource kinds on the wire.
const (
	KindRendezvous = "rendezvous"
	KindFIFO       = "fifo"
	KindProcessor  = "processor"
	KindHardware   = "hardware"
)

// Channel declares one point-to-point channel.
type Channel struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"` // "rendezvous" | "fifo"
	Capacity int    `json:"capacity,omitempty"`
}

// Function declares one application function and its cyclic body.
type Function struct {
	Name string `json:"name"`
	Body []Stmt `json:"body"`
}

// Stmt is one body statement; exactly one of the three fields must be
// set: {"read": "ch"}, {"write": "ch"} or {"exec": {...}}.
type Stmt struct {
	Read  string `json:"read,omitempty"`
	Write string `json:"write,omitempty"`
	Exec  *Exec  `json:"exec,omitempty"`
}

// Exec declares one execute statement.
type Exec struct {
	Label string `json:"label,omitempty"`
	Cost  Cost   `json:"cost"`
}

// Cost kinds.
const (
	CostFixed   = "fixed"    // Ops operations regardless of the token
	CostPerByte = "per_byte" // Base + PerByte·token size
	CostTable   = "table"    // Table[k] operations at iteration k
)

// Cost declares the operation count of one execute statement.
type Cost struct {
	Kind    string    `json:"kind"`
	Ops     *Expr     `json:"ops,omitempty"`
	Base    *Expr     `json:"base,omitempty"`
	PerByte *Expr     `json:"per_byte,omitempty"`
	Table   []float64 `json:"table,omitempty"`
}

// Resource declares one processing resource.
type Resource struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"` // "processor" | "hardware"
	OpsPerSec *Expr  `json:"ops_per_sec"`
}

// Mapping allocates functions to a resource; the function order is the
// static rotation.
type Mapping struct {
	Resource  string   `json:"resource"`
	Functions []string `json:"functions"`
}

// Source declares one environment source.
type Source struct {
	Name     string    `json:"name"`
	Channel  string    `json:"channel"`
	Count    *Expr     `json:"count"`
	Schedule *Schedule `json:"schedule,omitempty"` // nil: eager
	Tokens   *Tokens   `json:"tokens,omitempty"`   // nil: size-0 tokens
}

// Schedule kinds.
const (
	ScheduleEager    = "eager"    // u(k) = 0
	SchedulePeriodic = "periodic" // u(k) = offset + k·period
	ScheduleTable    = "table"    // u(k) = Table[k]
)

// Schedule declares a source's production instants u(k) in
// nanoseconds.
type Schedule struct {
	Kind   string  `json:"kind"`
	Period *Expr   `json:"period,omitempty"`
	Offset *Expr   `json:"offset,omitempty"`
	Table  []int64 `json:"table,omitempty"`
}

// Tokens declares a source's token generator: the payload size and
// optional per-index attributes, each as a scalar stream over the
// iteration index.
type Tokens struct {
	Size  *Scalar  `json:"size,omitempty"`
	Attrs []Scalar `json:"attrs,omitempty"`
}

// Scalar kinds.
const (
	ScalarFixed  = "fixed"  // Value at every iteration
	ScalarStream = "stream" // Min + Hash64(Seed,k) mod Span (workload.SizeStream)
	ScalarTable  = "table"  // Table[k]
)

// Scalar declares one per-iteration value stream.
type Scalar struct {
	Kind  string    `json:"kind"`
	Value *Expr     `json:"value,omitempty"`
	Seed  *Expr     `json:"seed,omitempty"`
	Min   *Expr     `json:"min,omitempty"`
	Span  *Expr     `json:"span,omitempty"`
	Table []float64 `json:"table,omitempty"`
}

// Sink declares one environment sink.
type Sink struct {
	Name    string `json:"name"`
	Channel string `json:"channel"`
}

// Group names a function set for the hybrid engine's partial
// abstraction. The group named "hybrid" (or a sole group) is the
// spec's canonical abstraction group.
type Group struct {
	Name      string   `json:"name"`
	Functions []string `json:"functions"`
}

// Expr is a numeric field of the spec: either a literal number or a
// "$name" reference to a declared parameter, resolved at Build time.
type Expr struct {
	value float64
	param string
}

// Num returns a literal expression.
func Num(v float64) *Expr { return &Expr{value: v} }

// UnmarshalJSON accepts a JSON number or a "$name" string.
func (e *Expr) UnmarshalJSON(b []byte) error {
	b = bytes.TrimSpace(b)
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		if !strings.HasPrefix(s, "$") || len(s) < 2 {
			return fmt.Errorf("string expression %q is not a $parameter reference", s)
		}
		e.param, e.value = s[1:], 0
		return nil
	}
	e.param = ""
	return json.Unmarshal(b, &e.value)
}

// MarshalJSON renders the literal or the "$name" reference.
func (e Expr) MarshalJSON() ([]byte, error) {
	if e.param != "" {
		return json.Marshal("$" + e.param)
	}
	return json.Marshal(e.value)
}

// binding is a resolved parameter assignment.
type binding map[string]float64

// resolve evaluates the expression under a binding. A nil receiver
// resolves to def.
func (e *Expr) resolve(b binding, def float64) float64 {
	if e == nil {
		return def
	}
	if e.param != "" {
		return b[e.param] // decode guarantees the reference is declared
	}
	return e.value
}
