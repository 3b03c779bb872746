package sweep

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/zoo"
)

func pipelineGen(xsizeAxis bool) Generator {
	return func(p Point) (*model.Architecture, error) {
		x := int(p.Get("xsize", 6))
		_ = xsizeAxis
		return zoo.Pipeline(zoo.PipelineSpec{
			XSize:  x,
			Tokens: int(p.Get("tokens", 50)),
			Period: maxplus.T(p.Get("period", 600)),
			Seed:   p.Get("seed", 17),
		}), nil
	}
}

func TestGridRowMajor(t *testing.T) {
	pts, err := Grid([]Axis{
		{Name: "a", Values: []int64{1, 2}},
		{Name: "b", Values: []int64{10, 20, 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("grid size %d, want 6", len(pts))
	}
	want := [][2]int64{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		if p.Values[0] != want[i][0] || p.Values[1] != want[i][1] {
			t.Fatalf("point %d = %v, want %v", i, p.Values, want[i])
		}
	}
	if v, ok := pts[3].Lookup("b"); !ok || v != 10 {
		t.Fatalf("Lookup(b) on point 3 = %d,%t", v, ok)
	}
	if pts[0].Get("missing", 42) != 42 {
		t.Fatal("Get default not applied")
	}
}

func TestGridRejectsBadAxes(t *testing.T) {
	for name, axes := range map[string][]Axis{
		"empty":     nil,
		"noValues":  {{Name: "a"}},
		"noName":    {{Values: []int64{1}}},
		"duplicate": {{Name: "a", Values: []int64{1}}, {Name: "a", Values: []int64{2}}},
	} {
		if _, err := Grid(axes); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// The acceptance property: identical per-point results regardless of the
// worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	axes := []Axis{
		{Name: "tokens", Values: []int64{20, 40}},
		{Name: "period", Values: []int64{500, 800}},
		{Name: "seed", Values: []int64{1, 2, 3}},
	}
	run := func(workers int) *Result {
		res, err := Run(axes, pipelineGen(false), Options{Workers: workers, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{4, 8} {
		parallel := run(workers)
		if len(parallel.Points) != len(serial.Points) {
			t.Fatalf("point counts differ: %d vs %d", len(parallel.Points), len(serial.Points))
		}
		for i := range serial.Points {
			s, p := serial.Points[i], parallel.Points[i]
			if s.Err != nil || p.Err != nil {
				t.Fatalf("point %d failed: %v / %v", i, s.Err, p.Err)
			}
			if s.Run.Activations != p.Run.Activations ||
				s.Run.Events != p.Run.Events ||
				s.Run.FinalTimeNs != p.Run.FinalTimeNs ||
				s.Run.Iterations != p.Run.Iterations ||
				s.Run.GraphNodes != p.Run.GraphNodes {
				t.Fatalf("point %d stats differ between 1 and %d workers:\n%+v\n%+v",
					i, workers, s.Run, p.Run)
			}
			if err := observe.CompareInstants(s.Trace, p.Trace); err != nil {
				t.Fatalf("point %d instants differ between 1 and %d workers: %v", i, workers, err)
			}
		}
	}
}

// One structural shape swept across 12 parameter points must derive
// exactly once, even under concurrency.
func TestDeriveOncePerShape(t *testing.T) {
	axes := []Axis{
		{Name: "tokens", Values: []int64{10, 20}},
		{Name: "period", Values: []int64{400, 700}},
		{Name: "seed", Values: []int64{5, 6, 7}},
	}
	before := derive.Calls()
	res, err := Run(axes, pipelineGen(false), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 0 {
		t.Fatalf("%d points failed", res.Stats.Failed)
	}
	if got := derive.Calls() - before; got != 1 {
		t.Fatalf("Derive ran %d times for one shape, want 1", got)
	}
	if res.Stats.DeriveCalls != 1 || res.Stats.CacheHits != 11 || res.Stats.Shapes != 1 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

// Distinct shapes each derive once.
func TestDerivePerShapeMultiShape(t *testing.T) {
	axes := []Axis{
		{Name: "xsize", Values: []int64{4, 6, 8}},
		{Name: "seed", Values: []int64{1, 2, 3, 4}},
	}
	before := derive.Calls()
	res, err := Run(axes, pipelineGen(true), Options{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 0 {
		t.Fatalf("%d points failed", res.Stats.Failed)
	}
	if got := derive.Calls() - before; got != 3 {
		t.Fatalf("Derive ran %d times for three shapes, want 3", got)
	}
	if res.Stats.Shapes != 3 || res.Stats.CacheHits != 9 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

// Baseline pairing: bit-exact agreement per point and sensible ratios.
func TestBaselinePairing(t *testing.T) {
	axes := []Axis{
		{Name: "tokens", Values: []int64{30}},
		{Name: "seed", Values: []int64{1, 2}},
	}
	res, err := Run(axes, pipelineGen(false), Options{Workers: 2, Engine: "equivalent", Baseline: true, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Points {
		if pr.Err != nil {
			t.Fatalf("point %d: %v", i, pr.Err)
		}
		if pr.Baseline == nil {
			t.Fatalf("point %d: no baseline", i)
		}
		if err := observe.CompareInstants(pr.BaselineTrace, pr.Trace); err != nil {
			t.Fatalf("point %d not bit-exact against reference: %v", i, err)
		}
		if pr.EventRatio <= 1 {
			t.Fatalf("point %d: event ratio %.2f, want > 1", i, pr.EventRatio)
		}
		if pr.Baseline.Activations <= pr.Run.Activations {
			t.Fatalf("point %d: equivalent model saved no activations", i)
		}
	}
	if res.Stats.EventRatio.N != 2 || res.Stats.EventRatio.Min <= 1 {
		t.Fatalf("aggregate event ratio: %+v", res.Stats.EventRatio)
	}
	if res.Stats.SpeedUp.N != 2 {
		t.Fatalf("aggregate speed-up: %+v", res.Stats.SpeedUp)
	}
}

// An engine that runs no kernel activation leaves the event ratio
// undefined: the point reports 0 and the aggregate leaves it out, while
// the speed-ups still aggregate. Batched lanes pair the same way.
func TestUndefinedEventRatioSkipped(t *testing.T) {
	axes := []Axis{
		{Name: "tokens", Values: []int64{30}},
		{Name: "seed", Values: []int64{1, 2, 3}},
	}
	for _, width := range []int{0, 2} {
		res, err := Run(axes, pipelineGen(false), Options{Engine: "adaptive", Baseline: true, BatchWidth: width})
		if err != nil {
			t.Fatal(err)
		}
		for i, pr := range res.Points {
			if pr.Err != nil {
				t.Fatalf("width %d point %d: %v", width, i, pr.Err)
			}
			if pr.Baseline == nil || pr.Baseline.Activations == 0 {
				t.Fatalf("width %d point %d: no baseline run", width, i)
			}
			if pr.Run.Activations != 0 || pr.EventRatio != 0 {
				t.Fatalf("width %d point %d: %d activations, event ratio %v", width, i, pr.Run.Activations, pr.EventRatio)
			}
		}
		if res.Stats.EventRatio != (Aggregate{}) {
			t.Fatalf("width %d: undefined event ratios aggregated: %+v", width, res.Stats.EventRatio)
		}
		if res.Stats.SpeedUp.N != 3 {
			t.Fatalf("width %d: aggregate speed-up %+v, want 3 points", width, res.Stats.SpeedUp)
		}
	}
}

func TestReferenceEngine(t *testing.T) {
	axes := []Axis{{Name: "tokens", Values: []int64{10, 20}}}
	before := derive.Calls()
	res, err := Run(axes, pipelineGen(false), Options{Engine: "reference", Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := derive.Calls() - before; got != 0 {
		t.Fatalf("reference sweep derived %d times", got)
	}
	for i, pr := range res.Points {
		if pr.Err != nil {
			t.Fatalf("point %d: %v", i, pr.Err)
		}
		if pr.Run.Activations == 0 || pr.Trace == nil {
			t.Fatalf("point %d: empty reference run", i)
		}
	}
}

func TestPointErrorsAreIsolated(t *testing.T) {
	axes := []Axis{{Name: "seed", Values: []int64{0, 1, 2, 3}}}
	bad := errors.New("boom")
	gen := func(p Point) (*model.Architecture, error) {
		if p.Get("seed", 0) == 2 {
			return nil, bad
		}
		return zoo.Pipeline(zoo.PipelineSpec{XSize: 4, Tokens: 5, Seed: p.Get("seed", 0)}), nil
	}
	res, err := Run(axes, gen, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Stats.Failed)
	}
	for i, pr := range res.Points {
		isBad := pr.Point.Get("seed", 0) == 2
		if isBad && !errors.Is(pr.Err, bad) {
			t.Fatalf("point %d: err = %v, want wrapped boom", i, pr.Err)
		}
		if !isBad && pr.Err != nil {
			t.Fatalf("point %d: unexpected error %v", i, pr.Err)
		}
		if !isBad && (pr.Run.Iterations == 0 || pr.Run.FinalTimeNs == 0) {
			t.Fatalf("point %d did not run", i)
		}
	}
}

// A panicking generator (model builders panic on invalid specs) must be
// confined to its point, not kill the sweep.
func TestPointPanicsAreIsolated(t *testing.T) {
	axes := []Axis{{Name: "stages", Values: []int64{0, 1, 2}}}
	gen := func(p Point) (*model.Architecture, error) {
		return zoo.DidacticChain(int(p.Get("stages", 1)),
			zoo.DidacticSpec{Tokens: 5, Period: 900, Seed: 1}), nil
	}
	res, err := Run(axes, gen, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Stats.Failed)
	}
	if res.Points[0].Err == nil || !strings.Contains(res.Points[0].Err.Error(), "panic") {
		t.Fatalf("stages=0 err = %v, want panic report", res.Points[0].Err)
	}
	for _, pr := range res.Points[1:] {
		if pr.Err != nil || pr.Run.Iterations == 0 || pr.Run.FinalTimeNs == 0 {
			t.Fatalf("healthy point affected: %+v", pr)
		}
	}
}

// DeriveFor must be able to vary derivation options per point (the
// Fig. 5 pad sweep) without corrupting the cache.
func TestDeriveForPerPoint(t *testing.T) {
	axes := []Axis{{Name: "pad", Values: []int64{0, 8, 16}}}
	gen := func(p Point) (*model.Architecture, error) {
		return zoo.Pipeline(zoo.PipelineSpec{XSize: 4, Tokens: 10, Seed: 3}), nil
	}
	res, err := Run(axes, gen, Options{
		DeriveFor: func(p Point) derive.Options {
			return derive.Options{PadNodes: int(p.Get("pad", 0))}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[int]int{}
	for _, pr := range res.Points {
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
		nodes[pr.Run.GraphNodes]++
	}
	if len(nodes) != 3 {
		t.Fatalf("pad options collapsed: distinct node counts %v", nodes)
	}
	if res.Stats.Shapes != 3 {
		t.Fatalf("padded variants must be distinct cache entries: %d", res.Stats.Shapes)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(nil, pipelineGen(false), Options{}); err == nil {
		t.Fatal("empty axes accepted")
	}
	if _, err := Run([]Axis{{Name: "a", Values: []int64{1}}}, nil, Options{}); err == nil {
		t.Fatal("nil generator accepted")
	}
}

func TestPointString(t *testing.T) {
	pts, err := Grid([]Axis{{Name: "a", Values: []int64{1}}, {Name: "b", Values: []int64{2}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pts[0].String(); got != "a=1,b=2" {
		t.Fatalf("String() = %q", got)
	}
	if got := fmt.Sprint(pts[0]); got != "a=1,b=2" {
		t.Fatalf("Sprint = %q", got)
	}
}

// Progress fires once per finished point with a monotonic completed
// count, and reaches done == total — also when points fail.
func TestProgressHook(t *testing.T) {
	axes := []Axis{
		{Name: "tokens", Values: []int64{10, 20}},
		{Name: "period", Values: []int64{500, 800, 1100}},
	}
	var mu sync.Mutex
	var dones []int
	res, err := Run(axes, pipelineGen(false), Options{
		Workers: 3,
		Progress: func(done, total int) {
			if total != 6 {
				t.Errorf("total = %d, want 6", total)
			}
			mu.Lock()
			dones = append(dones, done)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points != 6 {
		t.Fatalf("points = %d, want 6", res.Stats.Points)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dones) != 6 {
		t.Fatalf("progress fired %d times, want 6", len(dones))
	}
	sort.Ints(dones)
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("completed counts %v, want 1..6", dones)
		}
	}
}

// A cancelled sweep still drives progress to done == total: the
// undispatched tail is counted as it is failed, so streaming consumers
// observe a complete bar before the terminal state.
func TestProgressReachesTotalOnCancel(t *testing.T) {
	axes := []Axis{{Name: "tokens", Values: []int64{10, 20, 30, 40}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Deliveries may be observed out of order; track the max.
	var high atomic.Int64
	_, err := RunContext(ctx, axes, pipelineGen(false), Options{
		Workers: 2,
		Progress: func(done, total int) {
			for {
				cur := high.Load()
				if int64(done) <= cur || high.CompareAndSwap(cur, int64(done)) {
					return
				}
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := high.Load(); got != 4 {
		t.Fatalf("final completed count = %d, want 4", got)
	}
}
