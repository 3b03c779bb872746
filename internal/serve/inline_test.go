package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"dyncomp/internal/archjson"
	"dyncomp/internal/engine"
	"dyncomp/internal/zoo"
)

// inlineSpec is the served twin of the optimizer's reference design
// space: one function at 1 op/ns fed by a strictly periodic source, so
// final time is exactly (count-1)·period + work and every assertion
// below is closed-form.
const inlineSpec = `{
  "version": 1,
  "name": "wiregrid",
  "parameters": [
    {"name": "period", "default": 700,
     "values": [500, 550, 600, 650, 700, 750, 800, 850],
     "power": {"scale": 2e5, "exp": -1}},
    {"name": "work", "default": 100,
     "values": [50, 100, 150, 200],
     "power": {"scale": 0.5}, "area": {"base": 1, "scale": 0.01}}
  ],
  "channels": [
    {"name": "in", "kind": "rendezvous"},
    {"name": "out", "kind": "rendezvous"}
  ],
  "functions": [
    {"name": "F", "body": [
      {"read": "in"},
      {"exec": {"label": "T", "cost": {"kind": "fixed", "ops": "$work"}}},
      {"write": "out"}
    ]}
  ],
  "resources": [{"name": "P1", "kind": "processor", "ops_per_sec": 1e9}],
  "mapping": [{"resource": "P1", "functions": ["F"]}],
  "sources": [{"name": "src", "channel": "in", "count": 40,
               "schedule": {"kind": "periodic", "period": "$period", "offset": 0}}],
  "sinks": [{"name": "sink", "channel": "out"}]
}`

// inlineFinal is the closed-form final time of inlineSpec.
func inlineFinal(period, work int64) int64 { return 39*period + work }

// An inline architecture evaluates end to end, the response names the
// spec instead of a scenario, and a structurally identical repeat is a
// derive-cache rebind — the shape key of the built model feeds the
// same process-wide cache as registry scenarios.
func TestRunInlineArchitecture(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := RunRequest{
		Architecture: json.RawMessage(inlineSpec),
		Params:       map[string]int64{"period": 600, "work": 150},
	}

	resp := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, errorCode(t, resp))
	}
	rr := decodeBody[RunResponse](t, resp)
	if rr.Architecture != "wiregrid" || rr.Scenario != "" {
		t.Fatalf("response names %q / scenario %q", rr.Architecture, rr.Scenario)
	}
	if rr.Result.FinalTimeNs != inlineFinal(600, 150) {
		t.Fatalf("final %d, want %d", rr.Result.FinalTimeNs, inlineFinal(600, 150))
	}
	if rr.Cache.Misses == 0 {
		t.Fatalf("first inline run should miss the derive cache: %+v", rr.Cache)
	}

	// Different parameters, same structure: a rebind, not a re-derivation.
	req.Params = map[string]int64{"period": 800, "work": 50}
	resp = postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d", resp.StatusCode)
	}
	rr2 := decodeBody[RunResponse](t, resp)
	if rr2.Result.FinalTimeNs != inlineFinal(800, 50) {
		t.Fatalf("second final %d, want %d", rr2.Result.FinalTimeNs, inlineFinal(800, 50))
	}
	if rr2.Cache.Hits <= rr.Cache.Hits {
		t.Fatalf("identical structure did not rebind: hits %d -> %d", rr.Cache.Hits, rr2.Cache.Hits)
	}
	if rr2.Cache.Misses != rr.Cache.Misses {
		t.Fatalf("identical structure re-derived: misses %d -> %d", rr.Cache.Misses, rr2.Cache.Misses)
	}
}

// Inline runs agree bit for bit across every registered engine — the
// serving layer adds no semantics to the decoded model.
func TestRunInlineBitExactAcrossEngines(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want := inlineFinal(700, 100)
	for _, eng := range []string{"reference", "equivalent", "adaptive"} {
		resp := postJSON(t, ts.URL+"/v1/run", RunRequest{
			Engine:       eng,
			Architecture: json.RawMessage(inlineSpec),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", eng, resp.StatusCode)
		}
		rr := decodeBody[RunResponse](t, resp)
		if rr.Result.FinalTimeNs != want {
			t.Fatalf("%s: final %d, want %d", eng, rr.Result.FinalTimeNs, want)
		}
	}
}

// The inline error taxonomy at the HTTP layer: every malformed spec
// answers a stable code, mirroring the archjson table tests one level
// up the stack.
func TestRunInlineErrorCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"garbage spec", `{"architecture": {"version": 1}}`,
			http.StatusBadRequest, CodeInvalidArchitecture},
		{"future version", `{"architecture": {"version": 99, "name": "x"}}`,
			http.StatusBadRequest, CodeUnsupportedVersion},
		{"mutual exclusion", `{"scenario": "didactic", "architecture": ` + inlineSpec + `}`,
			http.StatusBadRequest, CodeInvalidArchitecture},
		{"unknown param", `{"architecture": ` + inlineSpec + `, "params": {"ghost": 1}}`,
			http.StatusBadRequest, CodeUnknownParam},
		{"unknown engine", `{"engine": "warp", "architecture": ` + inlineSpec + `}`,
			http.StatusBadRequest, CodeUnknownEngine},
		{"hybrid without group", `{"engine": "hybrid", "architecture": ` + inlineSpec + `}`,
			http.StatusBadRequest, CodeMissingGroup},
		{"resolved-value violation", `{"architecture": ` + inlineSpec + `, "params": {"period": -1}}`,
			http.StatusBadRequest, CodeInvalidArchitecture},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if code := errorCode(t, resp); code != tc.code {
				t.Fatalf("code %q, want %q", code, tc.code)
			}
		})
	}

	// An oversized body answers 413 before the spec is even looked at.
	big := `{"architecture": {"version": 1, "name": "` + strings.Repeat("x", maxBodyBytes) + `"}}`
	resp := post(big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeBodyTooLarge {
		t.Fatalf("oversize body: code %q", code)
	}
}

// An inline sweep: the grid spans the spec's declared parameters, every
// point matches the closed form, and undeclared axes are rejected.
func TestSweepInlineArchitecture(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Architecture: json.RawMessage(inlineSpec),
		Axes: []Axis{
			{Name: "period", Values: []int64{500, 700}},
			{Name: "work", Values: []int64{50, 200}},
		},
		Options: SweepOptions{Workers: 2},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d %s", resp.StatusCode, errorCode(t, resp))
	}
	j := decodeBody[Job](t, resp)
	if j.Scenario != "wiregrid" || j.Total != 4 {
		t.Fatalf("job %+v", j)
	}
	jr := waitJob(t, ts.URL, j.ID, terminal)
	if jr.State != "done" {
		t.Fatalf("job settled as %q: %s", jr.State, jr.Error)
	}
	if len(jr.Points) != 4 {
		t.Fatalf("%d points", len(jr.Points))
	}
	for _, p := range jr.Points {
		if p.Error != "" || p.Result == nil {
			t.Fatalf("point %+v failed", p)
		}
		want := inlineFinal(p.Params["period"], p.Params["work"])
		if p.Result.FinalTimeNs != want {
			t.Fatalf("point %v: final %d, want %d", p.Params, p.Result.FinalTimeNs, want)
		}
	}

	resp = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Architecture: json.RawMessage(inlineSpec),
		Axes:         []Axis{{Name: "phase", Values: []int64{1, 2}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("undeclared axis: status %d", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeInvalidAxes {
		t.Fatalf("undeclared axis: code %q", code)
	}
}

// The optimizer endpoint returns the brute-force front while simulating
// fewer points, and rejects malformed requests with stable codes.
func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	exh := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{
		Architecture: json.RawMessage(inlineSpec),
		Objective:    "final_time",
		Options:      OptimizeOptions{Exhaustive: true, Workers: 2},
	})
	if exh.StatusCode != http.StatusOK {
		t.Fatalf("exhaustive: status %d %s", exh.StatusCode, errorCode(t, exh))
	}
	want := decodeBody[OptimizeResponse](t, exh)
	if !want.Exhaustive || want.Simulated != 32 || len(want.Front) != 8 {
		t.Fatalf("exhaustive response %+v", want)
	}

	resp := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{
		Architecture: json.RawMessage(inlineSpec),
		Objective:    "final_time",
		Options:      OptimizeOptions{Workers: 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surrogate: status %d %s", resp.StatusCode, errorCode(t, resp))
	}
	got := decodeBody[OptimizeResponse](t, resp)
	if got.Architecture != "wiregrid" || got.Objective != "final_time" {
		t.Fatalf("response %+v", got)
	}
	if !got.Converged || got.Exhaustive || got.Simulated >= want.Simulated {
		t.Fatalf("surrogate run: %+v", got)
	}
	if len(got.Front) != len(want.Front) {
		t.Fatalf("front %d points, want %d", len(got.Front), len(want.Front))
	}
	for i := range got.Front {
		g, w := got.Front[i], want.Front[i]
		if g.Index != w.Index || g.Objective != w.Objective || g.Params["work"] != 50 {
			t.Fatalf("front[%d] = %+v, want %+v", i, g, w)
		}
	}

	// Constrained: the budget cuts the feasible set analytically.
	resp = postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{
		Architecture: json.RawMessage(inlineSpec),
		Objective:    "final_time",
		Constraints:  []OptimizeConstraint{{Metric: "power", Max: 300}},
		Options:      OptimizeOptions{Workers: 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("constrained: status %d", resp.StatusCode)
	}
	if c := decodeBody[OptimizeResponse](t, resp); c.Feasible >= c.GridPoints || c.Feasible == 0 {
		t.Fatalf("power budget did not cut the grid: %+v", c)
	}

	bad := []struct {
		name string
		req  OptimizeRequest
		code string
	}{
		{"missing architecture", OptimizeRequest{Objective: "final_time"}, CodeInvalidArchitecture},
		{"unknown objective", OptimizeRequest{
			Architecture: json.RawMessage(inlineSpec), Objective: "latency_p99"}, CodeInvalidObjective},
		{"unknown constraint metric", OptimizeRequest{
			Architecture: json.RawMessage(inlineSpec),
			Constraints:  []OptimizeConstraint{{Metric: "thermals", Max: 1}}}, CodeInvalidConstraint},
		{"future version", OptimizeRequest{
			Architecture: json.RawMessage(`{"version": 7, "name": "x"}`)}, CodeUnsupportedVersion},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/optimize", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if code := errorCode(t, resp); code != tc.code {
				t.Fatalf("code %q, want %q", code, tc.code)
			}
		})
	}

	// A constraint on a metric no parameter costs is unenforceable.
	noPower := `{
	  "version": 1, "name": "nopower",
	  "parameters": [{"name": "work", "default": 50, "values": [50, 100]}],
	  "channels": [{"name": "in", "kind": "rendezvous"}, {"name": "out", "kind": "rendezvous"}],
	  "functions": [{"name": "F", "body": [
	    {"read": "in"},
	    {"exec": {"cost": {"kind": "fixed", "ops": "$work"}}},
	    {"write": "out"}]}],
	  "resources": [{"name": "P", "kind": "processor", "ops_per_sec": 1e9}],
	  "mapping": [{"resource": "P", "functions": ["F"]}],
	  "sources": [{"name": "s", "channel": "in", "count": 5}],
	  "sinks": [{"name": "k", "channel": "out"}]}`
	resp = postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{
		Architecture: json.RawMessage(noPower),
		Constraints:  []OptimizeConstraint{{Metric: "power", Max: 10}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("uncosted constraint: status %d", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeInvalidConstraint {
		t.Fatalf("uncosted constraint: code %q", code)
	}

	// The design space is bounded like a sweep grid.
	_, small := newTestServer(t, Config{MaxGridPoints: 4})
	resp = postJSON(t, small.URL+"/v1/optimize", OptimizeRequest{
		Architecture: json.RawMessage(inlineSpec),
	})
	if code := errorCode(t, resp); code != CodeGridTooLarge {
		t.Fatalf("oversize design space: code %q", code)
	}
}

// exportedTwin exports the scenario built under params as an inline
// spec, declaring the scenario's canonical hybrid group as the spec's
// "hybrid" group when withGroup is set.
func exportedTwin(t *testing.T, scenario string, params zoo.ParamMap, withGroup bool) string {
	t.Helper()
	sc, err := zoo.LookupScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := archjson.Export(sc.Build(params))
	if err != nil {
		t.Fatal(err)
	}
	if withGroup {
		spec.Groups = append(spec.Groups, archjson.Group{Name: "hybrid", Functions: sc.HybridGroup(params)})
	}
	b, err := archjson.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A scenario and its exported inline twin take one request path: on
// every engine, /v1/run answers both with the same evaluation, the
// hybrid engine abstracting each source's canonical group.
func TestRunScenarioMatchesInlineTwin(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	params := zoo.ParamMap{"stages": 2, "tokens": 300, "seed": 5}
	pj, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	twin := exportedTwin(t, "didactic", params, true)
	for _, eng := range engine.Names() {
		t.Run(eng, func(t *testing.T) {
			run := func(body string) RunResponse {
				t.Helper()
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, errorCode(t, resp))
				}
				return decodeBody[RunResponse](t, resp)
			}
			sc := run(fmt.Sprintf(`{"engine": %q, "scenario": "didactic", "params": %s}`, eng, pj))
			in := run(fmt.Sprintf(`{"engine": %q, "architecture": %s}`, eng, twin))
			if sc.Scenario != "didactic" || in.Architecture == "" || in.Scenario != "" {
				t.Fatalf("sources named scenario %q / architecture %q, %q", sc.Scenario, in.Architecture, in.Scenario)
			}
			a, b := sc.Result, in.Result
			if a.FinalTimeNs != b.FinalTimeNs || a.Events != b.Events || a.Activations != b.Activations ||
				a.Iterations != b.Iterations || a.GraphNodes != b.GraphNodes {
				t.Fatalf("scenario %+v != inline twin %+v", a, b)
			}
			if a.FinalTimeNs == 0 {
				t.Fatalf("empty result %+v", a)
			}
		})
	}
}

// Every check resolve, hybridGroup and the build share answers the
// same for both sources; only a failing build answers by source — a
// spec's resolved-value violation is the request's fault, a scenario
// builder's failure is the run's.
func TestRunErrorsPerSource(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	noGroup := exportedTwin(t, "didactic", zoo.ParamMap{"tokens": 50}, false)
	cases := []struct {
		name            string
		scenario, spec  string
		status, statusI int
		code, codeI     string
	}{
		{"unknown param",
			`{"scenario": "didactic", "params": {"ghost": 1}}`,
			`{"architecture": ` + inlineSpec + `, "params": {"ghost": 1}}`,
			http.StatusBadRequest, http.StatusBadRequest, CodeUnknownParam, CodeUnknownParam},
		{"hybrid without group",
			`{"engine": "hybrid", "scenario": "random"}`,
			`{"engine": "hybrid", "architecture": ` + noGroup + `}`,
			http.StatusBadRequest, http.StatusBadRequest, CodeMissingGroup, CodeMissingGroup},
		{"build failure",
			`{"scenario": "chain", "params": {"stages": 0}}`,
			`{"architecture": ` + inlineSpec + `, "params": {"period": -1}}`,
			http.StatusUnprocessableEntity, http.StatusBadRequest, CodeRunFailed, CodeInvalidArchitecture},
	}
	for _, tc := range cases {
		for _, c := range []struct {
			source, body string
			status       int
			code         string
		}{
			{"scenario", tc.scenario, tc.status, tc.code},
			{"inline", tc.spec, tc.statusI, tc.codeI},
		} {
			t.Run(tc.name+"/"+c.source, func(t *testing.T) {
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(c.body))
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != c.status {
					t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
				}
				if code := errorCode(t, resp); code != c.code {
					t.Fatalf("code %q, want %q", code, c.code)
				}
			})
		}
	}
}
