package archjson

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dyncomp/internal/zoo"
)

// Every golden fixture under testdata/ decodes, builds under its
// declared defaults, and survives a Marshal → Decode round trip.
func TestGoldenFixturesDecodeAndBuild(t *testing.T) {
	files, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("found %d golden fixtures, want at least 3", len(files))
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			a, err := spec.Build(nil)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if a.Name != spec.Name {
				t.Fatalf("architecture name %q != spec name %q", a.Name, spec.Name)
			}
			out, err := Marshal(spec)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if _, err := Decode(out); err != nil {
				t.Fatalf("re-Decode of Marshal output: %v", err)
			}
		})
	}
}

// The fixture with declared parameters rebinds under explicit values,
// checks bindings, and evaluates its cost models.
func TestSweepableFixtureParameters(t *testing.T) {
	data, err := os.ReadFile("testdata/sweepable.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.ParamNames(), []string{"period", "work"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ParamNames = %v, want %v", got, want)
	}
	if err := spec.CheckParams(map[string]int64{"periodd": 1}); err == nil {
		t.Fatal("CheckParams accepted a misspelled parameter")
	}
	a, err := spec.Build(zoo.ParamMap{"period": 500, "work": 200})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sources[0].Schedule(2) != 1000 {
		t.Fatalf("u(2) = %d, want 1000 under period 500", a.Sources[0].Schedule(2))
	}
	m, err := spec.EvalCost(zoo.ParamMap{"period": 500, "work": 200})
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasPower || !m.HasArea {
		t.Fatalf("cost metrics missing declared models: %+v", m)
	}
	// power = 2e5/500 + 0.5*200 = 400 + 100; area = 1 + 0.01*200.
	if m.Power != 500 || m.Area != 3 {
		t.Fatalf("EvalCost = %+v, want power 500 area 3", m)
	}
}

// The invalid-case table pins the stable error codes of the decoder:
// structured errors, never panics, and the exact code per failure
// class (the serving layer relays these on the wire).
func TestDecodeInvalidSpecsStableCodes(t *testing.T) {
	valid, err := os.ReadFile("testdata/minimal.json")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		code string
	}{
		{"empty", ``, CodeInvalid},
		{"not json", `{`, CodeInvalid},
		{"json scalar", `42`, CodeInvalid},
		{"missing version", `{"name": "x"}`, CodeVersion},
		{"future version", `{"version": 2, "name": "x"}`, CodeVersion},
		{"future version with unknown field", `{"version": 2, "name": "x", "wibble": 1}`, CodeVersion},
		{"unknown field before version", `{"wibble": 1, "version": 1, "name": "x"}`, CodeInvalid},
		{"unknown field", `{"version": 1, "name": "x", "wibble": 1}`, CodeInvalid},
		{"trailing data", `{"version": 1, "name": "x"} {}`, CodeInvalid},
		{"trailing brace", `{"version": 1, "name": "x"}}`, CodeInvalid},
		{"empty name", `{"version": 1, "name": ""}`, CodeInvalid},
		{"bad expr string", `{"version": 1, "name": "x", "resources": [{"name": "P", "kind": "processor", "ops_per_sec": "fast"}]}`, CodeInvalid},
		{"unknown channel kind", `{"version": 1, "name": "x", "channels": [{"name": "c", "kind": "mailbox"}]}`, CodeInvalid},
		{"rendezvous with capacity", `{"version": 1, "name": "x", "channels": [{"name": "c", "kind": "rendezvous", "capacity": 3}]}`, CodeInvalid},
		{"fifo without capacity", `{"version": 1, "name": "x", "channels": [{"name": "c", "kind": "fifo"}]}`, CodeInvalid},
		{"duplicate channel", `{"version": 1, "name": "x", "channels": [{"name": "c", "kind": "rendezvous"}, {"name": "c", "kind": "rendezvous"}]}`, CodeInvalid},
		{"body not read-first", strings.Replace(string(valid), `{"read": "in"},`, ``, 1), CodeInvalid},
		{"two stmt fields", `{"version": 1, "name": "x", "channels": [{"name": "c", "kind": "rendezvous"}], "functions": [{"name": "F", "body": [{"read": "c", "write": "c"}]}]}`, CodeInvalid},
		{"unknown read channel", `{"version": 1, "name": "x", "functions": [{"name": "F", "body": [{"read": "ghost"}]}]}`, CodeInvalid},
		{"unknown cost kind", strings.Replace(string(valid), `"kind": "fixed", "ops": 1000`, `"kind": "quadratic"`, 1), CodeInvalid},
		{"undeclared param ref", strings.Replace(string(valid), `"ops": 1000`, `"ops": "$work"`, 1), CodeInvalid},
		{"decreasing schedule table", `{"version": 1, "name": "x", "channels": [{"name": "c", "kind": "rendezvous"}], "sources": [{"name": "s", "channel": "c", "count": 2, "schedule": {"kind": "table", "table": [5, 3]}}]}`, CodeInvalid},
		{"unmapped function ref in group", strings.Replace(string(valid), `"sinks"`, `"groups": [{"name": "g", "functions": ["ghost"]}], "sinks"`, 1), CodeInvalid},
		{"oversize", `{"version": 1, "name": "` + strings.Repeat("x", MaxSpecBytes) + `"}`, CodeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.data))
			if err == nil {
				t.Fatal("Decode accepted an invalid spec")
			}
			if got := ErrCode(err); got != tc.code {
				t.Fatalf("code = %q (%v), want %q", got, err, tc.code)
			}
		})
	}
}

// Build-level failures — resolved values the structural check cannot
// see, and model.Validate rejections — also carry CodeInvalid.
func TestBuildInvalidResolutionsStableCodes(t *testing.T) {
	cases := []struct {
		name string
		data string
		p    zoo.ParamMap
	}{
		{
			"zero speed",
			`{"version": 1, "name": "x", "resources": [{"name": "P", "kind": "processor", "ops_per_sec": 0}]}`,
			nil,
		},
		{
			"zero count",
			`{"version": 1, "name": "x", "channels": [{"name": "c", "kind": "rendezvous"}], "sources": [{"name": "s", "channel": "c", "count": 0}], "sinks": [{"name": "k", "channel": "c"}]}`,
			nil,
		},
		{
			"param-driven zero speed",
			`{"version": 1, "name": "x", "parameters": [{"name": "mhz", "default": 1}], "resources": [{"name": "P", "kind": "processor", "ops_per_sec": "$mhz"}]}`,
			zoo.ParamMap{"mhz": 0},
		},
		{
			// Passes Check but not model.Validate: the channel has a
			// writer and no reader.
			"model validation failure",
			`{"version": 1, "name": "x", "channels": [{"name": "c", "kind": "rendezvous"}], "sources": [{"name": "s", "channel": "c", "count": 1}]}`,
			nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Decode([]byte(tc.data))
			if err != nil {
				t.Fatalf("Decode rejected the spec before Build: %v", err)
			}
			var p Params
			if tc.p != nil {
				p = tc.p
			}
			if _, err := spec.Build(p); ErrCode(err) != CodeInvalid {
				t.Fatalf("Build err = %v, want code %q", err, CodeInvalid)
			}
		})
	}
}

// CanonicalGroup picks the group named "hybrid", else a sole group.
func TestCanonicalGroup(t *testing.T) {
	s := &Spec{Groups: []Group{{Name: "a", Functions: []string{"F1"}}}}
	if g := s.CanonicalGroup(); len(g) != 1 || g[0] != "F1" {
		t.Fatalf("sole group: %v", g)
	}
	s.Groups = append(s.Groups, Group{Name: "hybrid", Functions: []string{"F2"}})
	if g := s.CanonicalGroup(); len(g) != 1 || g[0] != "F2" {
		t.Fatalf("hybrid group: %v", g)
	}
	s.Groups = []Group{{Name: "a", Functions: []string{"F1"}}, {Name: "b", Functions: []string{"F2"}}}
	if g := s.CanonicalGroup(); g != nil {
		t.Fatalf("ambiguous groups should yield nil, got %v", g)
	}
}
