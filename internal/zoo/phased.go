package zoo

import (
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/workload"
)

// PhasedSpec parameterizes the phase-changing didactic workload: the
// Fig. 1 architecture processing a token stream whose size regime shifts
// between steady plateaus and noisy transients. It checks that every
// engine stays exact when the execution durations change mid-run.
type PhasedSpec struct {
	Tokens  int              // total tokens; must cover the phase plan
	Period  maxplus.T        // source period; 0 means an eager source
	Seed    int64            // transient-noise seed
	UseFIFO bool             // capacity-2 FIFO channels instead of rendezvous
	Phases  []workload.Phase // nil: DefaultPhases(Tokens)
	Stages  int              // chained didactic stages; 0 or 1: single stage
}

// Phased builds the phase-changing didactic architecture.
func Phased(spec PhasedSpec) *model.Architecture {
	phases := spec.Phases
	if phases == nil {
		phases = DefaultPhases(spec.Tokens)
	}
	d := DidacticSpec{
		Tokens:  spec.Tokens,
		Period:  spec.Period,
		Seed:    spec.Seed,
		UseFIFO: spec.UseFIFO,
		Sizes:   workload.PhaseStream(spec.Seed, phases),
	}
	if spec.Stages > 1 {
		return DidacticChain(spec.Stages, d)
	}
	return Didactic(d)
}

// DefaultPhases is the canonical phase plan used by tests, benchmarks
// and experiments: three steady plateaus at distinct operating points,
// separated by short noisy transients (~5% of the run each), scaled to
// the token count. With the didactic costs the plateaus dominate.
func DefaultPhases(tokens int) []workload.Phase {
	if tokens < 20 {
		return []workload.Phase{{Len: tokens, Size: 128}}
	}
	steady := tokens * 3 / 10
	trans := tokens / 20
	rest := tokens - 2*steady - 2*trans
	return []workload.Phase{
		{Len: steady, Size: 128},
		{Len: trans, Size: 96, Span: 160},
		{Len: steady, Size: 224},
		{Len: trans, Size: 64, Span: 192},
		{Len: rest, Size: 96},
	}
}

// PhasedFromParams builds the phase-changing didactic workload from the
// parameters tokens, period, seed, fifo (0/1) and stages.
func PhasedFromParams(p Params) *model.Architecture {
	return Phased(PhasedSpec{
		Tokens:  int(param(p, "tokens", 1000)),
		Period:  maxplus.T(param(p, "period", 1100)),
		Seed:    param(p, "seed", 7),
		UseFIFO: param(p, "fifo", 0) != 0,
		Stages:  int(param(p, "stages", 1)),
	})
}
