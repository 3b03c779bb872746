package derive_test

import (
	"fmt"
	"strings"
	"testing"

	"dyncomp/internal/derive"
	"dyncomp/internal/model"
	"dyncomp/internal/zoo"

	// Register the LTE case-study scenario, so the zoo lists it.
	_ "dyncomp/internal/lte"
)

// shapeKeyFmt is the fmt-built key ShapeKey must keep producing byte
// for byte: the shard ring places shapes by it and a cache snapshot
// digests it.
func shapeKeyFmt(a *model.Architecture) (string, error) {
	if err := a.Validate(); err != nil {
		return "", err
	}
	fnIdx := make(map[*model.Function]int, len(a.Functions))
	for i, f := range a.Functions {
		fnIdx[f] = i
	}
	chIdx := make(map[*model.Channel]int, len(a.Channels))
	for i, ch := range a.Channels {
		chIdx[ch] = i
	}
	resIdx := make(map[*model.Resource]int, len(a.Resources))
	for i, r := range a.Resources {
		resIdx[r] = i
	}

	var b strings.Builder
	fmt.Fprintf(&b, "arch %s\n", a.Name)
	for i, ch := range a.Channels {
		fmt.Fprintf(&b, "ch %d %s kind=%d cap=%d src=%t sink=%t\n",
			i, ch.Name, ch.Kind, ch.Capacity, ch.Source != nil, ch.Sink != nil)
	}
	for i, f := range a.Functions {
		fmt.Fprintf(&b, "fn %d %s res=%d rot=%d body=", i, f.Name, resIdx[f.Resource], f.RotIndex)
		for _, st := range f.Body {
			switch s := st.(type) {
			case model.Read:
				fmt.Fprintf(&b, "R%d;", chIdx[s.Ch])
			case model.Write:
				fmt.Fprintf(&b, "W%d;", chIdx[s.Ch])
			case model.Exec:
				fmt.Fprintf(&b, "X%s;", s.Label)
			}
		}
		b.WriteByte('\n')
	}
	for i, r := range a.Resources {
		fmt.Fprintf(&b, "res %d %s kind=%d conc=%d rot=", i, r.Name, r.Kind, r.Concurrency)
		for _, f := range r.Rotation {
			fmt.Fprintf(&b, "%d;", fnIdx[f])
		}
		b.WriteByte('\n')
	}
	for i, s := range a.Sources {
		fmt.Fprintf(&b, "src %d %s ch=%d\n", i, s.Name, chIdx[s.Ch])
	}
	for i, s := range a.Sinks {
		fmt.Fprintf(&b, "sink %d %s ch=%d\n", i, s.Name, chIdx[s.Ch])
	}
	return b.String(), nil
}

func build(t testing.TB, scenario string, p zoo.ParamMap) *model.Architecture {
	t.Helper()
	sc, err := zoo.LookupScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Build(p)
}

// The verbatim keys of two shapes. A changed byte moves every shape to
// another worker of a shard ring and renames every cache snapshot
// digest, so a change here is a wire change, not a refactor.
func TestShapeKeyGolden(t *testing.T) {
	for _, c := range []struct {
		scenario string
		params   zoo.ParamMap
		want     string
	}{
		{"didactic", zoo.ParamMap{"stages": 2}, `arch didactic-chain-2
ch 0 M1 kind=0 cap=0 src=true sink=false
ch 1 M2 kind=0 cap=0 src=false sink=false
ch 2 M3 kind=0 cap=0 src=false sink=false
ch 3 M4 kind=0 cap=0 src=false sink=false
ch 4 M5 kind=0 cap=0 src=false sink=false
ch 5 M6 kind=0 cap=0 src=false sink=false
ch 6 M2_2 kind=0 cap=0 src=false sink=false
ch 7 M3_2 kind=0 cap=0 src=false sink=false
ch 8 M4_2 kind=0 cap=0 src=false sink=false
ch 9 M5_2 kind=0 cap=0 src=false sink=false
ch 10 M6_2 kind=0 cap=0 src=false sink=true
fn 0 F1 res=0 rot=0 body=R0;XTi1;W1;XTj1;W2;
fn 1 F2 res=0 rot=1 body=R2;XTi2;W3;
fn 2 F3 res=1 rot=0 body=R1;XTi3;R3;XTj3;W4;
fn 3 F4 res=1 rot=1 body=R4;XTi4;W5;
fn 4 F1_2 res=2 rot=0 body=R5;XTi1_2;W6;XTj1_2;W7;
fn 5 F2_2 res=2 rot=1 body=R7;XTi2_2;W8;
fn 6 F3_2 res=3 rot=0 body=R6;XTi3_2;R8;XTj3_2;W9;
fn 7 F4_2 res=3 rot=1 body=R9;XTi4_2;W10;
res 0 P1 kind=0 conc=1 rot=0;1;
res 1 P2 kind=1 conc=2 rot=2;3;
res 2 P1_2 kind=0 conc=1 rot=4;5;
res 3 P2_2 kind=1 conc=2 rot=6;7;
src 0 F0 ch=0
sink 0 env ch=10
`},
		{"forkjoin", zoo.ParamMap{"workers": 3}, `arch forkjoin-3
ch 0 FJ_in kind=0 cap=0 src=true sink=false
ch 1 FJ_f1 kind=0 cap=0 src=false sink=false
ch 2 FJ_g1 kind=0 cap=0 src=false sink=false
ch 3 FJ_f2 kind=0 cap=0 src=false sink=false
ch 4 FJ_g2 kind=0 cap=0 src=false sink=false
ch 5 FJ_f3 kind=0 cap=0 src=false sink=false
ch 6 FJ_g3 kind=0 cap=0 src=false sink=false
ch 7 FJ_out kind=0 cap=0 src=false sink=true
fn 0 Split res=0 rot=0 body=R0;XTsplit;W1;W3;W5;
fn 1 W1 res=1 rot=0 body=R1;XTw1;W2;
fn 2 W2 res=2 rot=0 body=R3;XTw2;W4;
fn 3 W3 res=3 rot=0 body=R5;XTw3;W6;
fn 4 Gather res=4 rot=0 body=R2;R4;R6;XTgather;W7;
res 0 Psplit kind=0 conc=1 rot=0;
res 1 Pw1 kind=0 conc=1 rot=1;
res 2 Pw2 kind=0 conc=1 rot=2;
res 3 Pw3 kind=0 conc=1 rot=3;
res 4 Pgather kind=1 conc=1 rot=4;
src 0 src ch=0
sink 0 env ch=7
`},
	} {
		got, err := derive.ShapeKey(build(t, c.scenario, c.params))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s %v: key\n%s\nwant\n%s", c.scenario, c.params, got, c.want)
		}
	}
}

// keyCases lists every registered scenario at its defaults and at a
// larger size — pipeline at 60 stages and forkjoin at 40 workers have
// more channels than ShapeKey scans, so its map lookup runs too — plus
// zoo.Random seeds 0-199.
func keyCases() []*model.Architecture {
	var out []*model.Architecture
	for _, sc := range zoo.Scenarios() {
		out = append(out, sc.Build(zoo.ParamMap{}))
	}
	for _, c := range []struct {
		scenario string
		params   zoo.ParamMap
	}{
		{"didactic", zoo.ParamMap{"stages": 3, "fifo": 1}},
		{"chain", zoo.ParamMap{"stages": 4}},
		{"pipeline", zoo.ParamMap{"xsize": 60}},
		{"phased", zoo.ParamMap{"stages": 2, "fifo": 1}},
		{"forkjoin", zoo.ParamMap{"workers": 40}},
	} {
		sc, err := zoo.LookupScenario(c.scenario)
		if err != nil {
			panic(err)
		}
		out = append(out, sc.Build(c.params))
	}
	for seed := int64(0); seed < 200; seed++ {
		out = append(out, zoo.RandomFromParams(zoo.ParamMap{"seed": seed}))
	}
	return out
}

// ShapeKey is byte-identical to the fmt-built key on every case.
func TestShapeKeyMatchesFmt(t *testing.T) {
	for _, a := range keyCases() {
		got, err := derive.ShapeKey(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		want, err := shapeKeyFmt(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if got != want {
			t.Errorf("%s: key\n%s\nwant\n%s", a.Name, got, want)
		}
	}
}

// A key costs its buffer and its string: the size estimate leaves no
// room to grow on a zoo model, and short slices need no index map.
func TestShapeKeyAllocs(t *testing.T) {
	for _, a := range []*model.Architecture{
		build(t, "didactic", zoo.ParamMap{"stages": 2}),
		build(t, "forkjoin", zoo.ParamMap{}),
		zoo.RandomFromParams(zoo.ParamMap{"seed": 7}),
	} {
		if _, err := derive.ShapeKey(a); err != nil { // validates a once
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := derive.ShapeKey(a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: %.0f allocations per key, want at most 2", a.Name, allocs)
		}
	}
}

// BenchmarkShapeKey measures one key of a 2-stage didactic chain, the
// shape perfbench sweep_grid keys once per point and cache request.
//
//	go test ./internal/derive -run '^$' -bench ShapeKey
func BenchmarkShapeKey(b *testing.B) {
	a := build(b, "didactic", zoo.ParamMap{"stages": 2})
	if err := a.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := derive.ShapeKey(a); err != nil {
			b.Fatal(err)
		}
	}
}
