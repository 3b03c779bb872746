package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"dyncomp/internal/maxplus"
)

// didactic builds the paper's Fig. 1 example: five functions F0..F4 (F0 as
// source), two processing resources P1 (processor) and P2 (hardware).
func didactic(t *testing.T) (*Architecture, map[string]*Channel) {
	t.Helper()
	a := NewArchitecture("didactic")
	chs := map[string]*Channel{}
	for _, n := range []string{"M1", "M2", "M3", "M4", "M5", "M6"} {
		chs[n] = a.AddChannel(n, Rendezvous, 0)
	}
	cost := OpsPerByte(100, 1)
	f1 := a.AddFunction("F1",
		Read{chs["M1"]}, Exec{"Ti1", cost}, Write{chs["M2"]}, Exec{"Tj1", cost}, Write{chs["M3"]})
	f2 := a.AddFunction("F2",
		Read{chs["M3"]}, Exec{"Ti2", cost}, Write{chs["M4"]})
	f3 := a.AddFunction("F3",
		Read{chs["M2"]}, Exec{"Ti3", cost}, Read{chs["M4"]}, Exec{"Tj3", cost}, Write{chs["M5"]})
	f4 := a.AddFunction("F4",
		Read{chs["M5"]}, Exec{"Ti4", cost}, Write{chs["M6"]})
	p1 := a.AddProcessor("P1", 1e9)
	p2 := a.AddHardware("P2", 1e9)
	a.Map(p1, f1, f2)
	a.Map(p2, f3, f4)
	a.AddSource("F0", chs["M1"], Periodic(1000, 0), func(k int) Token {
		return Token{Size: int64(100 + k%7)}
	}, 100)
	a.AddSink("env", chs["M6"])
	return a, chs
}

func TestValidateDidactic(t *testing.T) {
	a, chs := didactic(t)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if chs["M1"].Source == nil || chs["M1"].ReaderFunc.Name != "F1" {
		t.Fatal("M1 endpoints not resolved")
	}
	if chs["M6"].Sink == nil || chs["M6"].WriterFunc.Name != "F4" {
		t.Fatal("M6 endpoints not resolved")
	}
	if chs["M3"].WriterFunc.Name != "F1" || chs["M3"].ReaderFunc.Name != "F2" {
		t.Fatal("M3 endpoints not resolved")
	}
	var p1, p2 *Resource
	for _, r := range a.Resources {
		switch r.Name {
		case "P1":
			p1 = r
		case "P2":
			p2 = r
		}
	}
	if p1.Concurrency != 1 {
		t.Fatalf("P1 concurrency = %d, want 1", p1.Concurrency)
	}
	if p2.Concurrency != 2 {
		t.Fatalf("P2 concurrency = %d, want 2", p2.Concurrency)
	}
	// Validate is idempotent.
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTokenProvenance(t *testing.T) {
	a, chs := didactic(t)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every channel's token traces to the source, so sizes match u(k)'s.
	for _, name := range []string{"M1", "M2", "M3", "M4", "M5", "M6"} {
		src := a.SourceOf(chs[name])
		if src != a.Sources[0] {
			t.Fatalf("SourceOf(%s) = %v, want the architecture's source", name, src)
		}
		for k := 0; k < 10; k++ {
			tok := src.TokenAt(k)
			if tok.Size != int64(100+k%7) {
				t.Fatalf("SourceOf(%s).TokenAt(%d).Size = %d", name, k, tok.Size)
			}
			if tok.K != k {
				t.Fatalf("SourceOf(%s).TokenAt(%d).K = %d", name, k, tok.K)
			}
		}
	}
}

func TestExecInfo(t *testing.T) {
	a, _ := didactic(t)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	execs, err := a.Execs()
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) != 6 {
		t.Fatalf("got %d execs, want 6", len(execs))
	}
	labels := []string{}
	for _, e := range execs {
		labels = append(labels, e.Label)
	}
	if got := strings.Join(labels, ","); got != "Ti1,Tj1,Ti2,Ti3,Tj3,Ti4" {
		t.Fatalf("exec labels = %q", got)
	}
	// Duration: ops = 100 + size, speed 1e9 ops/s => duration = ops ns.
	e := execs[0]
	if d := e.Duration(0); d != 200 {
		t.Fatalf("Duration(0) = %v, want 200", d)
	}
	if d := e.Duration(3); d != 203 {
		t.Fatalf("Duration(3) = %v, want 203", d)
	}
	if l := e.Load(3); l.Ops != 203 {
		t.Fatalf("Load(3).Ops = %v", l.Ops)
	}
}

func TestExecInfoErrors(t *testing.T) {
	a, _ := didactic(t)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	f1 := a.Functions[0]
	if _, err := a.ExecInfoOf(f1, 0); err == nil {
		t.Fatal("expected error: statement 0 is a Read")
	}
	if _, err := a.ExecInfoOf(f1, 99); err == nil {
		t.Fatal("expected error: index out of range")
	}
}

func TestValidateRejectsUnmappedFunction(t *testing.T) {
	a := NewArchitecture("bad")
	m := a.AddChannel("M", Rendezvous, 0)
	out := a.AddChannel("O", Rendezvous, 0)
	a.AddFunction("F", Read{m}, Write{out})
	a.AddSource("S", m, Eager(), func(int) Token { return Token{} }, 1)
	a.AddSink("K", out)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "not mapped") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsEmptyBody(t *testing.T) {
	a := NewArchitecture("bad")
	f := a.AddFunction("F")
	a.Map(a.AddProcessor("P", 1e9), f)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "empty body") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsBodyNotStartingWithRead(t *testing.T) {
	a := NewArchitecture("bad")
	m := a.AddChannel("M", Rendezvous, 0)
	f := a.AddFunction("F", Write{m})
	a.Map(a.AddProcessor("P", 1e9), f)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "must start with a Read") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsChannelWithTwoWriters(t *testing.T) {
	a := NewArchitecture("bad")
	in1 := a.AddChannel("I1", Rendezvous, 0)
	in2 := a.AddChannel("I2", Rendezvous, 0)
	m := a.AddChannel("M", Rendezvous, 0)
	f1 := a.AddFunction("F1", Read{in1}, Write{m})
	f2 := a.AddFunction("F2", Read{in2}, Write{m})
	a.Map(a.AddProcessor("P", 1e9), f1, f2)
	a.AddSource("S1", in1, Eager(), func(int) Token { return Token{} }, 1)
	a.AddSource("S2", in2, Eager(), func(int) Token { return Token{} }, 1)
	a.AddSink("K", m)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "writers") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsDanglingChannel(t *testing.T) {
	a := NewArchitecture("bad")
	a.AddChannel("M", Rendezvous, 0)
	if err := a.Validate(); err == nil {
		t.Fatal("expected error for dangling channel")
	}
}

func TestValidateRejectsMultiRate(t *testing.T) {
	a := NewArchitecture("bad")
	in := a.AddChannel("I", Rendezvous, 0)
	out := a.AddChannel("O", Rendezvous, 0)
	f := a.AddFunction("F", Read{in}, Read{in}, Write{out})
	a.Map(a.AddProcessor("P", 1e9), f)
	a.AddSource("S", in, Eager(), func(int) Token { return Token{} }, 1)
	a.AddSink("K", out)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	a := NewArchitecture("bad")
	in := a.AddChannel("I", Rendezvous, 0)
	loop := a.AddChannel("L", Rendezvous, 0)
	f := a.AddFunction("F", Read{in}, Read{loop}, Write{loop})
	a.Map(a.AddProcessor("P", 1e9), f)
	a.AddSource("S", in, Eager(), func(int) Token { return Token{} }, 1)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "both reads and writes") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsZeroCapacityFIFO(t *testing.T) {
	a := NewArchitecture("bad")
	a.AddChannel("M", FIFO, 0)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsMissingCost(t *testing.T) {
	a := NewArchitecture("bad")
	in := a.AddChannel("I", Rendezvous, 0)
	out := a.AddChannel("O", Rendezvous, 0)
	f := a.AddFunction("F", Read{in}, Exec{Label: "T"}, Write{out})
	a.Map(a.AddProcessor("P", 1e9), f)
	a.AddSource("S", in, Eager(), func(int) Token { return Token{} }, 1)
	a.AddSink("K", out)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "cost") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsBadResource(t *testing.T) {
	a := NewArchitecture("bad")
	in := a.AddChannel("I", Rendezvous, 0)
	out := a.AddChannel("O", Rendezvous, 0)
	f := a.AddFunction("F", Read{in}, Write{out})
	a.Map(a.AddProcessor("P", 0), f) // zero speed
	a.AddSource("S", in, Eager(), func(int) Token { return Token{} }, 1)
	a.AddSink("K", out)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "speed") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsNonPositiveSourceCount(t *testing.T) {
	a := NewArchitecture("bad")
	in := a.AddChannel("I", Rendezvous, 0)
	out := a.AddChannel("O", Rendezvous, 0)
	f := a.AddFunction("F", Read{in}, Write{out})
	a.Map(a.AddProcessor("P", 1e9), f)
	a.AddSource("S", in, Eager(), func(int) Token { return Token{} }, 0)
	a.AddSink("K", out)
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("err = %v", err)
	}
}

func TestDurationOf(t *testing.T) {
	r := &Resource{Name: "R", OpsPerSec: 2e9}
	if d := r.DurationOf(Load{Ops: 2000}); d != 1000 {
		t.Fatalf("DurationOf = %v, want 1000", d)
	}
	if d := r.DurationOf(Load{Ops: 0}); d != 0 {
		t.Fatalf("DurationOf(0) = %v", d)
	}
	if d := r.DurationOf(Load{Ops: -5}); d != 0 {
		t.Fatalf("DurationOf(-5) = %v", d)
	}
	if d := r.DurationOf(Load{Ops: 3}); d != 2 { // 1.5ns rounds to 2
		t.Fatalf("DurationOf(3 ops @2GHz) = %v, want 2", d)
	}
}

func TestSchedules(t *testing.T) {
	p := Periodic(100, 7)
	if p(0) != 7 || p(3) != 307 {
		t.Fatalf("Periodic wrong: %v %v", p(0), p(3))
	}
	e := Eager()
	if e(0) != 0 || e(99) != 0 {
		t.Fatal("Eager wrong")
	}
}

func TestTokenAttr(t *testing.T) {
	tok := Token{Attrs: []float64{1.5, 2.5}}
	if tok.Attr(0) != 1.5 || tok.Attr(1) != 2.5 {
		t.Fatal("Attr lookup wrong")
	}
	if tok.Attr(2) != 0 || tok.Attr(-1) != 0 {
		t.Fatal("Attr out-of-range should be 0")
	}
}

func TestCostHelpers(t *testing.T) {
	f := FixedOps(42)
	if f(Token{Size: 999}).Ops != 42 {
		t.Fatal("FixedOps wrong")
	}
	g := OpsPerByte(10, 2)
	if g(Token{Size: 5}).Ops != 20 {
		t.Fatal("OpsPerByte wrong")
	}
}

func TestKindStrings(t *testing.T) {
	if Processor.String() != "processor" || Hardware.String() != "hardware" {
		t.Fatal("ResourceKind strings wrong")
	}
	if Rendezvous.String() != "rendezvous" || FIFO.String() != "fifo" {
		t.Fatal("ChannelKind strings wrong")
	}
	if !strings.Contains(ResourceKind(9).String(), "9") || !strings.Contains(ChannelKind(9).String(), "9") {
		t.Fatal("unknown kind strings wrong")
	}
}

func TestPeriodicOverflowSafe(t *testing.T) {
	p := Periodic(maxplus.T(1<<40), 0)
	if p(2) != maxplus.T(1<<41) {
		t.Fatalf("Periodic large = %v", p(2))
	}
}

// refTicks is the conversion's formula on its own: no operations take
// no time, and any other load is its operations at the resource's speed,
// rounded to the nearest tick.
func refTicks(ops, speed float64) float64 {
	if ops <= 0 {
		return 0
	}
	return math.Round(ops / speed * 1e9)
}

// checkConversion holds Ticks, Duration and DurationOf to the formula:
// bit-identical ticks wherever the tick count is in range — Ticks
// declining only a load of no operations, which Duration then decides —
// and ErrDurationRange with the formula's figure everywhere else.
func checkConversion(t *testing.T, ops, speed float64) {
	t.Helper()
	r := &Resource{Name: "R", OpsPerSec: speed}
	l := Load{Ops: ops}
	want := refTicks(ops, speed)
	fast, ok := r.Ticks(l)
	d, err := r.Duration(l)
	if !(want < 1<<63) {
		msg := fmt.Sprintf("%v: %g ops on %q is %g ns", ErrDurationRange, ops, "R", want)
		if ok || !errors.Is(err, ErrDurationRange) || err.Error() != msg {
			t.Fatalf("%v ops at %v: Ticks ok %v, Duration error %v; want out of range, %q", ops, speed, ok, err, msg)
		}
		return
	}
	if err != nil || d != maxplus.T(want) || r.DurationOf(l) != d {
		t.Fatalf("%v ops at %v: Duration %v, %v, DurationOf %v; want %v ticks", ops, speed, d, err, r.DurationOf(l), want)
	}
	if ok && fast != d || !ok && ops > 0 {
		t.Fatalf("%v ops at %v: Ticks %v, %v; want %v ticks", ops, speed, fast, ok, want)
	}
}

func TestConversionAgreesWithFormula(t *testing.T) {
	speeds := []float64{1e9, 2e9, 3e9, 2.7e9, 1.3e8, 7, 6.02214076e23}
	// Loads that divide and scale to 0.49999999999999994 ticks: a
	// formula rounding by adding 0.5 would give 1.
	for _, c := range []struct{ ops, speed float64 }{
		{0.49999999999999994, 1e9}, {0.9999999999999999, 2e9}, {1.4999999999999998, 3e9}, {1.9999999999999998, 4e9},
	} {
		if x := c.ops / c.speed * 1e9; x != 0.49999999999999994 {
			t.Fatalf("%v ops at %v scale to %v", c.ops, c.speed, x)
		}
		checkConversion(t, c.ops, c.speed)
	}
	below := math.Nextafter(1<<63, 0) // the largest tick count that converts
	edges := []float64{
		0, math.Copysign(0, -1), -5, -2.5e9, math.Inf(-1), math.NaN(), math.Inf(1),
		1, 2.5, 3.5, 5, 1e-300, 1 << 63, below, 1e30,
	}
	for _, speed := range speeds {
		for _, ops := range edges {
			checkConversion(t, ops, speed)
		}
		// Halfway tick counts round away from zero.
		for _, half := range []float64{0.5, 1.5, 2.5, 1e6 + 0.5} {
			checkConversion(t, half*speed/1e9, speed)
		}
	}
	for _, ops := range []float64{1 << 63, below} { // exactly 2^63 ticks, and just below
		checkConversion(t, ops, 1e9)
	}
	if d, ok := (&Resource{OpsPerSec: 1e9}).Ticks(Load{Ops: below}); !ok || d != maxplus.T(below) {
		t.Fatalf("Ticks(%v) = %v, %v", below, d, ok)
	}
	if _, ok := (&Resource{OpsPerSec: 1e9}).Ticks(Load{Ops: 1 << 63}); ok {
		t.Fatal("2^63 ticks converted")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20000 {
		ops := math.Ldexp(rng.Float64(), rng.IntN(140)-40)
		checkConversion(t, ops, speeds[rng.IntN(len(speeds))])
		checkConversion(t, ops, 1+rng.Float64()*1e10)
	}
}
