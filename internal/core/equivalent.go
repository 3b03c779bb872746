// Package core implements the paper's contribution: the equivalent model.
//
// An equivalent model replaces all architecture processes with two kinds
// of lightweight simulation processes (Fig. 4 of the paper):
//
//   - Reception processes accept input tokens at the architecture
//     boundary. An arrival runs the ComputeInstant() action — evaluating
//     the temporal dependency graph in zero simulation time — for every
//     evolution instant it makes computable, the output instants y(k)
//     included.
//   - Emission processes replay the computed output instants: each waits
//     until simulation time reaches y(k) and only then emits the output
//     token.
//
// The whole architecture is the largest set of processes the method can
// abstract, so Model.Run is hybrid's boundary engine (internal/hybrid)
// with every function in the group, over the model's own derivation.
// Only boundary events remain visible to the simulation kernel; all
// internal events are saved. Because the internal instants are still
// computed, resource usage is reconstructed exactly on a local
// observation time (Fig. 2b) without involving the simulator.
//
// Model.Compute goes one step further and drops the kernel: it takes the
// input instants straight from the source schedules and computes every
// iteration, boundary included, from the graph (the "adaptive" engine).
// RunBatch computes many parameter points of one shape that way, with
// one batched graph evaluation per iteration for all of them. Every
// path reconstructs the observable evolution through
// derive.Result.Record.
package core

import (
	"fmt"

	"dyncomp/internal/derive"
	"dyncomp/internal/hybrid"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// Options configures an equivalent-model run.
type Options struct {
	// Trace, when non-nil, records the computed evolution instants and the
	// reconstructed resource activity, bit-exact against the reference
	// executor.
	Trace *observe.Trace
	// Limit bounds simulation time; zero means run to completion.
	Limit sim.Time
	// IterLimit, when positive, bounds the evolution to iterations
	// [0, IterLimit): every source stops after token IterLimit-1.
	IterLimit int
}

// Result reports a completed run.
type Result struct {
	Stats      sim.Stats
	Trace      *observe.Trace
	Iterations int
}

// Model is a runnable equivalent model built from a derived temporal
// dependency graph.
//
// A Model is reusable: Run may be called any number of times, from any
// goroutine, each call simulating from scratch with a fresh kernel. The
// iteration count is re-read from the architecture's sources on every
// Run, so a sweep can re-run one derived structure across parameter
// points without re-deriving. The boundary engine's state (ring, rows,
// counts) is pooled across runs, and compiled evaluators recycle their
// history rings through the program's shared pool, so repeated runs of
// one shape allocate nothing per iteration.
type Model struct {
	res *derive.Result
}

// New builds an equivalent model from a derivation result. All sources of
// the architecture must produce the same token count (single-rate
// evolution), and every output must drain into an environment sink (the
// abstraction boundary of the paper's experiments).
func New(res *derive.Result) (*Model, error) {
	if _, err := iterations(res); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Model{res: res}, nil
}

// iterations resolves the number of iterations to simulate from the
// architecture's sources, which must agree on one token count.
func iterations(res *derive.Result) (int, error) { return hybrid.Iterations(res.Arch) }

// Run simulates the equivalent model: hybrid's boundary engine with the
// whole architecture as its group, over the model's own derivation.
func (m *Model) Run(opts Options) (*Result, error) {
	res, err := hybrid.RunDerived(m.res, hybrid.Options{
		Trace:     opts.Trace,
		Limit:     opts.Limit,
		IterLimit: opts.IterLimit,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Stats: res.Stats, Trace: res.Trace, Iterations: res.Iterations}, nil
}
