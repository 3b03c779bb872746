// Package dyncomp is a performance-evaluation library for multi-core
// architectures implementing the dynamic computation method of Le Nours,
// Postula and Bergmann (DATE 2014): architecture models are described as
// statically-scheduled dataflow applications mapped onto platform
// resources, and simulated either event-by-event (the reference executor)
// or through an equivalent model that computes evolution instants
// dynamically over a (max,+) temporal dependency graph, saving most
// simulation events at zero accuracy cost.
//
// # Workflow
//
//	a := dyncomp.NewArchitecture("my-soc")
//	// ... describe channels, functions, resources, mapping, environment
//	opts := dyncomp.EngineOptions{Record: true}
//	ref, _ := dyncomp.Run(ctx, "reference", a, opts)
//	eq,  _ := dyncomp.Run(ctx, "equivalent", a, opts)
//	err := dyncomp.CompareTraces(ref.Trace, eq.Trace) // nil: bit-exact
//
// Beyond the two whole-architecture engines, the hybrid engine abstracts
// only a named group of functions (the paper's partial abstraction)
// while the rest stays event-driven, and the adaptive engine computes
// the whole evolution, boundary included, from the (max,+) graph with no
// simulation kernel at all — all four engines produce bit-exact traces.
// The engines form a registry: Engines() lists them, Run addresses any
// of them by name with one unified option set, and Sweep evaluates a
// parameter grid with any of them across a worker pool, deriving each
// structural shape exactly once:
//
//	hyb, _ := dyncomp.Run(ctx, "hybrid", a, dyncomp.EngineOptions{AbstractGroup: []string{"F1", "F2"}, Record: true})
//	ad,  _ := dyncomp.Run(ctx, "adaptive", a, dyncomp.EngineOptions{Record: true})
//	res, _ := dyncomp.Sweep(axes, gen, dyncomp.SweepOptions{Workers: 8})
//
// The whole matrix is also served over HTTP: internal/serve and the
// dyncomp-serve command expose synchronous runs, asynchronous sweep
// jobs with server-sent-event progress, and introspection endpoints,
// sharing one NewCache-style derivation cache across all requests (see
// docs/SERVING.md).
//
// The sub-systems live in internal packages: internal/sim (discrete-event
// kernel), internal/model (architecture description), internal/maxplus
// ((max,+) algebra), internal/tdg (temporal dependency graphs),
// internal/derive (automatic graph derivation, shape-keyed cache),
// internal/baseline and internal/core (the two execution engines),
// internal/hybrid (partial abstraction), internal/adaptive (kernel-free
// computation), internal/sweep (design-space
// exploration), internal/serve (the HTTP serving layer),
// internal/observe (traces and resource usage), internal/lte (the LTE
// case study) and internal/exp (the paper's experiments). See
// docs/ARCHITECTURE.md for the paper-section→package map and an engine
// decision table, and docs/TUTORIAL.md for a guided tour from first
// model to served sweeps.
package dyncomp

import (
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
)

// Re-exported modelling types; see internal/model for full documentation.
type (
	// Architecture is a complete performance model.
	Architecture = model.Architecture
	// Token is one unit of data flowing through the application.
	Token = model.Token
	// Load is the computation demand of an execute statement.
	Load = model.Load
	// CostFn computes the load of an execute statement for a token.
	CostFn = model.CostFn
	// Channel is a point-to-point relation between two functions.
	Channel = model.Channel
	// Function is a dataflow application function.
	Function = model.Function
	// Resource is a processing resource of the platform.
	Resource = model.Resource
	// Read is a blocking channel-read statement.
	Read = model.Read
	// Write is a channel-write statement.
	Write = model.Write
	// Exec is a resource-occupying execution statement.
	Exec = model.Exec
	// Trace is a recorded model evolution.
	Trace = observe.Trace
	// Activity is one recorded execution on a resource.
	Activity = observe.Activity
	// Series is a binned observation time series (e.g. GOPS).
	Series = observe.Series
	// Time is a (max,+) instant or duration in nanosecond ticks.
	Time = maxplus.T
)

// Channel protocols.
const (
	Rendezvous = model.Rendezvous
	FIFO       = model.FIFO
)

// NewArchitecture creates an empty architecture model.
func NewArchitecture(name string) *Architecture { return model.NewArchitecture(name) }

// NewTrace creates an empty evolution trace.
func NewTrace(name string) *Trace { return observe.NewTrace(name) }

// FixedOps returns a constant-operation-count cost function.
func FixedOps(ops float64) CostFn { return model.FixedOps(ops) }

// OpsPerByte returns a cost function of the form base + perByte·size.
func OpsPerByte(base, perByte float64) CostFn { return model.OpsPerByte(base, perByte) }

// Periodic returns the source schedule u(k) = offset + k·period.
func Periodic(period, offset Time) model.ScheduleFn { return model.Periodic(period, offset) }

// Eager returns the always-ready source schedule u(k) = 0.
func Eager() model.ScheduleFn { return model.Eager() }

// RunResult reports a completed simulation of one sweep point
// (SweepPointResult).
type RunResult struct {
	// Trace holds the recorded evolution when recording was requested.
	Trace *Trace
	// Activations counts kernel context switches (the cost the dynamic
	// computation method removes).
	Activations int64
	// Events counts kernel event-queue operations.
	Events int64
	// FinalTimeNs is the simulation time reached.
	FinalTimeNs int64
	// GraphNodes is the temporal dependency graph size in the paper's
	// counting (equivalent model only).
	GraphNodes int
}

// CompareTraces checks two traces for bit-exact agreement of every
// evolution instant; a nil result is the paper's accuracy criterion.
func CompareTraces(a, b *Trace) error { return observe.CompareInstants(a, b) }

// InstantError returns the mean absolute difference between the instants
// of two traces in nanoseconds (0 for exact methods).
func InstantError(a, b *Trace) float64 { return observe.MeanAbsInstantError(a, b) }
