package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dyncomp/internal/serve"
	"dyncomp/internal/sweep"
)

// newFleet starts n in-process dyncomp-serve workers over httptest and
// returns their base URLs. Each worker is a full serving layer — own
// derivation cache, own batched lanes — so the fleet exercises exactly
// the production chunk path, minus the network.
func newFleet(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		urls[i] = ts.URL
	}
	return urls
}

// newCoord wires a coordinator over httptest; Close and server shutdown
// are handled by cleanup.
func newCoord(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var env serve.ErrorResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error body is not the envelope: %s", raw)
	}
	return env.Err.Code
}

// submitSweep posts a sweep to the coordinator and returns the accepted
// job snapshot.
func submitSweep(t *testing.T, coordURL string, req serve.SweepRequest) serve.Job {
	t.Helper()
	resp := postJSON(t, coordURL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit answered %d (%s)", resp.StatusCode, errorCode(t, resp))
	}
	return decodeBody[serve.Job](t, resp)
}

// getResult fetches GET /v1/sweeps/{id}.
func getResult(t *testing.T, coordURL, id string) serve.JobResult {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get answered %d (%s)", resp.StatusCode, errorCode(t, resp))
	}
	return decodeBody[serve.JobResult](t, resp)
}

// terminalWire reports whether a wire state string is final.
func terminalWire(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// waitTerminal polls the job until it settles.
func waitTerminal(t *testing.T, coordURL, id string) serve.JobResult {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		res := getResult(t, coordURL, id)
		if terminalWire(res.State) {
			return res
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q (%d/%d) after 60s", id, res.State, res.Done, res.Total)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// localSweep evaluates the same request single-process through the
// identical compilation path a worker uses — the bit-exactness
// reference for every fleet test.
func localSweep(t *testing.T, req serve.SweepRequest) *sweep.Result {
	t.Helper()
	plan, rerr := serve.CompileSweep(req, serve.SweepDefaults{})
	if rerr != nil {
		t.Fatalf("local compile: %s", rerr.Msg)
	}
	res, err := sweep.Run(plan.Axes, plan.Gen, plan.Opts)
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	return res
}

// assertBitIdentical compares a settled fleet job against the
// single-process reference: per-point results in grid order (engine
// counters, event ratios, error strings) and the deterministic slice of
// the statistics — point counts, shape count, batch counts and lane
// occupancy. Wall-clock numbers and the distributed-vs-local cache
// counters are exempt by design.
func assertBitIdentical(t *testing.T, res serve.JobResult, local *sweep.Result) {
	t.Helper()
	if res.State != "done" {
		t.Fatalf("job settled as %q (%s)", res.State, res.Error)
	}
	if res.Done != res.Total || res.Total != len(local.Points) {
		t.Fatalf("done %d / total %d, local grid %d", res.Done, res.Total, len(local.Points))
	}
	if len(res.Points) != len(local.Points) {
		t.Fatalf("%d points, local %d", len(res.Points), len(local.Points))
	}
	for i, lp := range local.Points {
		fp := res.Points[i]
		wantErr := ""
		if lp.Err != nil {
			wantErr = lp.Err.Error()
		}
		if fp.Error != wantErr {
			t.Fatalf("point %d: error %q, local %q", i, fp.Error, wantErr)
		}
		if wantErr != "" {
			continue
		}
		if fp.Result == nil {
			t.Fatalf("point %d has no result", i)
		}
		if fp.Result.FinalTimeNs != lp.Run.FinalTimeNs ||
			fp.Result.Activations != lp.Run.Activations ||
			fp.Result.Events != lp.Run.Events ||
			fp.Result.Iterations != lp.Run.Iterations ||
			fp.Result.GraphNodes != lp.Run.GraphNodes {
			t.Fatalf("point %d: fleet %+v != local %+v", i, *fp.Result, lp.Run)
		}
		if math.Float64bits(fp.EventRatio) != math.Float64bits(lp.EventRatio) {
			t.Fatalf("point %d: event ratio %v != local %v", i, fp.EventRatio, lp.EventRatio)
		}
	}

	st := res.Stats
	if st == nil {
		t.Fatal("settled job has no stats")
	}
	ls := local.Stats
	if st.Points != ls.Points || st.Failed != ls.Failed || st.Shapes != ls.Shapes {
		t.Fatalf("stats points/failed/shapes %d/%d/%d, local %d/%d/%d",
			st.Points, st.Failed, st.Shapes, ls.Points, ls.Failed, ls.Shapes)
	}
	if st.Batches != ls.Batches || st.BatchedPoints != ls.BatchedPoints {
		t.Fatalf("stats batches %d/%d, local %d/%d",
			st.Batches, st.BatchedPoints, ls.Batches, ls.BatchedPoints)
	}
	if math.Float64bits(st.BatchOccupancy) != math.Float64bits(ls.BatchOccupancy) {
		t.Fatalf("batch occupancy %v, local %v", st.BatchOccupancy, ls.BatchOccupancy)
	}
	if ls.EventRatio.N > 0 {
		if st.EventRatio == nil {
			t.Fatal("local aggregated event ratios, fleet did not")
		}
		if st.EventRatio.N != ls.EventRatio.N ||
			math.Float64bits(st.EventRatio.Min) != math.Float64bits(ls.EventRatio.Min) ||
			math.Float64bits(st.EventRatio.Max) != math.Float64bits(ls.EventRatio.Max) ||
			math.Float64bits(st.EventRatio.Mean) != math.Float64bits(ls.EventRatio.Mean) ||
			math.Float64bits(st.EventRatio.Geomean) != math.Float64bits(ls.EventRatio.Geomean) {
			t.Fatalf("event-ratio aggregate %+v, local %+v", *st.EventRatio, ls.EventRatio)
		}
	} else if st.EventRatio != nil {
		t.Fatalf("fleet aggregated event ratios %+v, local had none defined", *st.EventRatio)
	}
}

// uniqueIndexParams asserts every grid point appears exactly once in a
// result set by its parameter tuple rendering — the no-duplicate /
// no-loss property of the fabric.
func uniqueIndexParams(t *testing.T, points []serve.SweepPoint) {
	t.Helper()
	seen := map[string]bool{}
	for i, p := range points {
		key := fmt.Sprintf("%v", p.Params)
		if p.Params == nil || len(p.Params) == 0 {
			t.Fatalf("point %d has no params (hole in the merge): %+v", i, p)
		}
		if seen[key] {
			t.Fatalf("params %s appear twice", key)
		}
		seen[key] = true
	}
}
