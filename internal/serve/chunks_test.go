package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"dyncomp/internal/sweep"
)

// A chunk evaluation is bit-identical to the same indices of a local
// sweep, preserves request-indices order and global grid indices, and
// reports the batch accounting the chunk consumed.
func TestChunkRunMatchesLocalSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	axes := []Axis{
		{Name: "stages", Values: []int64{1, 2}},
		{Name: "seed", Values: []int64{1, 2, 3}},
	}
	// Indices 3..5 are the whole stages=2 cohort.
	indices := []int{3, 4, 5}
	resp := postJSON(t, ts.URL+"/v1/chunks", ChunkRequest{
		SweepRequest: SweepRequest{
			Engine:   "adaptive",
			Scenario: "chain",
			Axes:     axes,
			Params:   map[string]int64{"tokens": 30},
			Options:  SweepOptions{BatchWidth: 2},
		},
		Indices: indices,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, errorCode(t, resp))
	}
	out := decodeBody[ChunkResponse](t, resp)
	if len(out.Points) != 3 {
		t.Fatalf("%d points, want 3", len(out.Points))
	}
	// The cohort of 3 at width 2 cuts into 2+1.
	if out.Batches != 2 || out.BatchedPoints != 3 {
		t.Fatalf("batches=%d batched_points=%d, want 2/3", out.Batches, out.BatchedPoints)
	}

	plan, aerr := CompileSweep(SweepRequest{
		Engine:   "adaptive",
		Scenario: "chain",
		Axes:     axes,
		Params:   map[string]int64{"tokens": 30},
		Options:  SweepOptions{BatchWidth: 2},
	}, s.defaults())
	if aerr != nil {
		t.Fatal(aerr)
	}
	local, err := sweep.RunIndices(plan.Axes, indices, plan.Gen, plan.Opts)
	if err != nil {
		t.Fatal(err)
	}
	for k, cp := range out.Points {
		want := local.Points[k]
		if cp.Index != want.Point.Index {
			t.Fatalf("point %d: index %d, want %d", k, cp.Index, want.Point.Index)
		}
		if cp.Error != "" {
			t.Fatalf("point %d failed: %s", cp.Index, cp.Error)
		}
		if cp.Result.FinalTimeNs != want.Run.FinalTimeNs ||
			cp.Result.Activations != want.Run.Activations ||
			cp.Result.Events != want.Run.Events ||
			cp.Result.Iterations != want.Run.Iterations {
			t.Fatalf("point %d: wire %+v != local %+v", cp.Index, cp.Result, want.Run)
		}
	}
}

// The chunk endpoint applies the full sweep validation plus its own
// index checks.
func TestChunkRunValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	axes := []Axis{{Name: "seed", Values: []int64{1, 2, 3}}}
	cases := []struct {
		name string
		req  ChunkRequest
		code string
	}{
		{
			name: "unknown scenario",
			req: ChunkRequest{
				SweepRequest: SweepRequest{Scenario: "nope", Axes: axes},
				Indices:      []int{0},
			},
			code: CodeUnknownScenario,
		},
		{
			name: "no indices",
			req: ChunkRequest{
				SweepRequest: SweepRequest{Scenario: "didactic", Axes: axes},
			},
			code: CodeInvalidIndices,
		},
		{
			name: "out of range",
			req: ChunkRequest{
				SweepRequest: SweepRequest{Scenario: "didactic", Axes: axes},
				Indices:      []int{0, 7},
			},
			code: CodeInvalidIndices,
		},
		{
			name: "duplicate index",
			req: ChunkRequest{
				SweepRequest: SweepRequest{Scenario: "didactic", Axes: axes},
				Indices:      []int{1, 1},
			},
			code: CodeInvalidIndices,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/chunks", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if code := errorCode(t, resp); code != tc.code {
				t.Fatalf("code %q, want %q", code, tc.code)
			}
		})
	}
}

// Chunks served show up in /metrics: the per-engine counter and the
// points total.
func TestChunkMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/chunks", ChunkRequest{
		SweepRequest: SweepRequest{
			Scenario: "didactic",
			Axes:     []Axis{{Name: "seed", Values: []int64{1, 2}}},
			Params:   map[string]int64{"tokens": 20},
		},
		Indices: []int{0, 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`dyncomp_serve_chunks_total{engine="equivalent"} 1`,
		"dyncomp_serve_chunk_points_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
