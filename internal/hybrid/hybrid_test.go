package hybrid

import (
	"sort"
	"strings"
	"testing"

	"dyncomp/internal/baseline"
	"dyncomp/internal/derive"
	"dyncomp/internal/lte"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

// runFull produces the full event-driven reference trace.
func runFull(t *testing.T, a *model.Architecture) *observe.Trace {
	t.Helper()
	tr := observe.NewTrace("full")
	if _, err := baseline.Run(a, baseline.Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func assertSameActivities(t *testing.T, full, hyb *observe.Trace) {
	t.Helper()
	fr := append([]string(nil), full.Resources()...)
	hr := append([]string(nil), hyb.Resources()...)
	sort.Strings(fr)
	sort.Strings(hr)
	if strings.Join(fr, ",") != strings.Join(hr, ",") {
		t.Fatalf("resource sets differ: %v vs %v", fr, hr)
	}
	for _, r := range fr {
		fa := append([]observe.Activity(nil), full.Activities(r)...)
		ha := append([]observe.Activity(nil), hyb.Activities(r)...)
		if len(fa) != len(ha) {
			t.Fatalf("%s: %d vs %d activities", r, len(fa), len(ha))
		}
		counts := map[observe.Activity]int{}
		for _, a := range fa {
			counts[a]++
		}
		for _, a := range ha {
			if counts[a] == 0 {
				t.Fatalf("%s: activity %+v missing from full run", r, a)
			}
			counts[a]--
		}
	}
}

// Abstracting the P2 subsystem {F3, F4} of the didactic example — the
// paper's "grouping some of the architecture processes" — must leave
// every evolution instant of the whole architecture unchanged. This group
// has two boundary inputs (M2 and M4, with a same-iteration gate between
// them) and one output (M6).
func TestHybridDidacticP2Group(t *testing.T) {
	for _, period := range []int64{0, 300, 2000} {
		spec := zoo.DidacticSpec{Tokens: 300, Period: maxplus.T(period), Seed: 7}
		full := runFull(t, zoo.Didactic(spec))
		ht := observe.NewTrace("hybrid")
		res, err := Run(zoo.Didactic(spec), Options{Group: []string{"F3", "F4"}, Trace: ht})
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		if err := observe.CompareInstants(full, ht); err != nil {
			t.Fatalf("period %d: accuracy violated: %v", period, err)
		}
		assertSameActivities(t, full, ht)
		if res.Iterations != 300 {
			t.Fatalf("iterations = %d", res.Iterations)
		}
	}
}

// Abstracting everything reproduces the whole-architecture equivalent
// model through the hybrid path.
func TestHybridFullGroup(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 200, Period: 900, Seed: 3}
	full := runFull(t, zoo.Didactic(spec))
	ht := observe.NewTrace("hybrid")
	res, err := Run(zoo.Didactic(spec), Options{Group: []string{"F1", "F2", "F3", "F4"}, Trace: ht})
	if err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(full, ht); err != nil {
		t.Fatalf("accuracy violated: %v", err)
	}
	assertSameActivities(t, full, ht)
	if res.GraphNodes != 10 {
		t.Fatalf("graph nodes = %d, want 10", res.GraphNodes)
	}
}

// Abstracting one stage of a chain: the boundary output feeds a real
// downstream stage whose backpressure must flow into the abstracted
// group's instants (the confirm path).
func TestHybridChainStage(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 250, Period: 600, Seed: 11} // backpressured
	group := []string{"F1", "F2", "F3", "F4"}                    // first stage only
	full := runFull(t, zoo.DidacticChain(3, spec))
	ht := observe.NewTrace("hybrid")
	if _, err := Run(zoo.DidacticChain(3, spec), Options{Group: group, Trace: ht}); err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(full, ht); err != nil {
		t.Fatalf("accuracy violated: %v", err)
	}
	assertSameActivities(t, full, ht)
}

// A middle stage: both boundaries internal to the architecture.
func TestHybridChainMiddleStage(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 200, Period: 700, Seed: 13}
	group := []string{"F1_2", "F2_2", "F3_2", "F4_2"}
	full := runFull(t, zoo.DidacticChain(3, spec))
	ht := observe.NewTrace("hybrid")
	if _, err := Run(zoo.DidacticChain(3, spec), Options{Group: group, Trace: ht}); err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(full, ht); err != nil {
		t.Fatalf("accuracy violated: %v", err)
	}
	assertSameActivities(t, full, ht)
}

// The LTE DSP cluster abstracted, the hardware decoder still simulated:
// the decoder is the bottleneck, so its backpressure shapes the DSP
// instants across the boundary — including the Reception gate itself,
// whose rotation term references the group's own output channel. Long
// runs with heavy frames exercise that feedback path.
func TestHybridLTEDSPGroup(t *testing.T) {
	group := lte.FunctionNames[:7]
	for _, tc := range []struct {
		frames int
		seed   int64
	}{{4, 9}, {20, 23}, {30, 5}} {
		symbols := tc.frames * lte.SymbolsPerFrame
		full := runFull(t, lte.Receiver(lte.Spec{Symbols: symbols, Seed: tc.seed}))
		ht := observe.NewTrace("hybrid")
		res, err := Run(lte.Receiver(lte.Spec{Symbols: symbols, Seed: tc.seed}), Options{Group: group, Trace: ht})
		if err != nil {
			t.Fatal(err)
		}
		if err := observe.CompareInstants(full, ht); err != nil {
			t.Fatalf("frames=%d seed=%d: accuracy violated: %v", tc.frames, tc.seed, err)
		}
		assertSameActivities(t, full, ht)
		if res.GraphNodes == 0 {
			t.Fatal("graph nodes not reported")
		}
	}
}

// The decoder alone as the abstracted group.
func TestHybridLTEDecoderGroup(t *testing.T) {
	symbols := 3 * lte.SymbolsPerFrame
	full := runFull(t, lte.Receiver(lte.Spec{Symbols: symbols, Seed: 4}))
	ht := observe.NewTrace("hybrid")
	if _, err := Run(lte.Receiver(lte.Spec{Symbols: symbols, Seed: 4}), Options{Group: []string{"ChannelDecoder"}, Trace: ht}); err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(full, ht); err != nil {
		t.Fatalf("accuracy violated: %v", err)
	}
	assertSameActivities(t, full, ht)
}

// With reduction enabled the hybrid stays exact.
func TestHybridReduced(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 150, Period: 500, Seed: 21}
	full := runFull(t, zoo.Didactic(spec))
	ht := observe.NewTrace("hybrid")
	if _, err := Run(zoo.Didactic(spec), Options{Group: []string{"F3", "F4"}, Trace: ht, Derive: derive.Options{Reduce: true}}); err != nil {
		t.Fatal(err)
	}
	if err := observe.CompareInstants(full, ht); err != nil {
		t.Fatalf("accuracy violated: %v", err)
	}
}

// Abstracting a large enough group must save events versus the full
// reference (small groups pay more boundary overhead than they save; the
// LTE DSP cluster with 7 functions is the paper-style win).
func TestHybridSavesEvents(t *testing.T) {
	symbols := 10 * lte.SymbolsPerFrame
	fres, err := baseline.Run(lte.Receiver(lte.Spec{Symbols: symbols, Seed: 2}), baseline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := Run(lte.Receiver(lte.Spec{Symbols: symbols, Seed: 2}), Options{Group: lte.FunctionNames[:7]})
	if err != nil {
		t.Fatal(err)
	}
	if hres.Stats.Activations >= fres.Stats.Activations {
		t.Fatalf("no saving: hybrid %d vs full %d", hres.Stats.Activations, fres.Stats.Activations)
	}
}

func TestHybridErrors(t *testing.T) {
	spec := zoo.DidacticSpec{Tokens: 10, Period: 100, Seed: 1}
	cases := []struct {
		name  string
		group []string
		want  string
	}{
		{"empty", nil, "empty group"},
		{"unknown", []string{"nope"}, "unknown function"},
		{"straddle", []string{"F1"}, "shared between"},
		{"two-outputs", []string{"F1", "F2"}, "output channels"},
	}
	for _, tc := range cases {
		_, err := Run(zoo.Didactic(spec), Options{Group: tc.group})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestHybridRejectsInvalidArchitecture(t *testing.T) {
	a := model.NewArchitecture("broken")
	a.AddChannel("M", model.Rendezvous, 0)
	if _, err := Run(a, Options{Group: []string{"F"}}); err == nil {
		t.Fatal("expected error")
	}
}

// Property: abstracting any single stage of a randomized chain stays
// bit-exact against the full reference, across seeds and source regimes.
func TestHybridRandomizedChains(t *testing.T) {
	stageNames := func(s int) []string {
		if s == 0 {
			return []string{"F1", "F2", "F3", "F4"}
		}
		suffix := []string{"", "_2", "_3"}[s]
		return []string{"F1" + suffix, "F2" + suffix, "F3" + suffix, "F4" + suffix}
	}
	for seed := int64(0); seed < 12; seed++ {
		period := maxplus.T(0)
		if seed%2 == 0 {
			period = maxplus.T(400 + 200*seed)
		}
		spec := zoo.DidacticSpec{Tokens: 120, Period: period, Seed: seed}
		full := runFull(t, zoo.DidacticChain(3, spec))
		stage := int(seed) % 3
		ht := observe.NewTrace("hybrid")
		if _, err := Run(zoo.DidacticChain(3, spec), Options{Group: stageNames(stage), Trace: ht}); err != nil {
			t.Fatalf("seed %d stage %d: %v", seed, stage, err)
		}
		if err := observe.CompareInstants(full, ht); err != nil {
			t.Fatalf("seed %d stage %d: accuracy violated: %v", seed, stage, err)
		}
	}
}
