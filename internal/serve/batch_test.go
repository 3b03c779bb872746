package serve

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dyncomp/internal/model"
	"dyncomp/internal/sweep"
)

// A batched sweep job: the request opts in with options.batch_width on
// the adaptive engine (the one with a batched form), the job's terminal
// stats report the batch counters, and /metrics exposes the accumulated
// batch occupancy.
func TestSweepJobBatched(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Engine:   "adaptive",
		Scenario: "pipeline",
		Axes: []Axis{
			{Name: "tokens", Values: []int64{20, 40}},
			{Name: "period", Values: []int64{500, 800, 1100}},
		},
		Params:  map[string]int64{"xsize": 5},
		Options: SweepOptions{Workers: 2, BatchWidth: 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	j := decodeBody[Job](t, resp)

	jr := waitJob(t, ts.URL, j.ID, terminal)
	if jr.State != "done" {
		t.Fatalf("job settled as %q (err %q)", jr.State, jr.Error)
	}
	if jr.Stats == nil || jr.Stats.Failed != 0 {
		t.Fatalf("stats %+v", jr.Stats)
	}
	// One structural shape, 6 points at width 4: chunks of 4 and 2.
	if jr.Stats.Batches != 2 || jr.Stats.BatchedPoints != 6 {
		t.Fatalf("batches=%d batched_points=%d, want 2/6", jr.Stats.Batches, jr.Stats.BatchedPoints)
	}
	if want := 6.0 / 8.0; jr.Stats.BatchOccupancy != want {
		t.Fatalf("occupancy %v, want %v", jr.Stats.BatchOccupancy, want)
	}
	for _, p := range jr.Points {
		if p.Error != "" || p.Result == nil || p.Result.FinalTimeNs == 0 {
			t.Fatalf("bad point %+v", p)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"dyncomp_serve_sweep_batches_total 2\n",
		"dyncomp_serve_sweep_batch_points_total 6\n",
		"dyncomp_serve_sweep_batch_lanes_total 8\n",
		"dyncomp_serve_sweep_batch_occupancy 0.7500\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", strings.TrimSpace(want), body)
		}
	}
}

// The server-wide default width applies when a request does not set
// options.batch_width; a negative width is a client error.
func TestSweepJobBatchWidthDefaultAndValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{SweepBatchWidth: 3})
	req := SweepRequest{
		Engine:   "adaptive",
		Scenario: "didactic",
		Axes:     []Axis{{Name: "seed", Values: []int64{1, 2, 3, 4, 5, 6}}},
		Params:   map[string]int64{"tokens": 20},
	}
	resp := postJSON(t, ts.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	j := decodeBody[Job](t, resp)
	jr := waitJob(t, ts.URL, j.ID, terminal)
	if jr.State != "done" {
		t.Fatalf("job settled as %q (err %q)", jr.State, jr.Error)
	}
	if jr.Stats.Batches != 2 || jr.Stats.BatchedPoints != 6 || jr.Stats.BatchOccupancy != 1.0 {
		t.Fatalf("server-default width unused: %+v", jr.Stats)
	}

	req.Options.BatchWidth = -1
	resp = postJSON(t, ts.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative batch_width: status %d", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeBadJSON {
		t.Fatalf("negative batch_width: code %q", code)
	}
}

// A batched job evaluates its chunks from the architectures its plan
// generated: every point is generated once, not once by the plan and
// again by its chunk, and the points and batch counts equal a direct
// batched sweep's. The grid holds two shapes, so two cohorts.
func TestBatchedJobGeneratesEachPointOnce(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	j, aerr := NewSweepJob(SweepRequest{
		Engine:   "adaptive",
		Scenario: "didactic",
		Axes: []Axis{
			{Name: "stages", Values: []int64{1, 2}},
			{Name: "seed", Values: []int64{3, 5, 7, 9, 11}},
		},
		Params:  map[string]int64{"tokens": 50},
		Options: SweepOptions{Workers: 2, BatchWidth: 4},
	}, s.defaults(), 0, time.Now())
	if aerr != nil {
		t.Fatal(aerr)
	}
	gen := j.plan.Gen
	var generated atomic.Int64
	j.plan.Gen = func(p sweep.Point) (*model.Architecture, error) {
		generated.Add(1)
		return gen(p)
	}
	j.cache = s.cache
	j.Run(context.Background(), 2, s.runChunk, false)
	jr := j.Result()
	if jr.State != "done" || jr.Stats == nil || jr.Stats.Failed != 0 {
		t.Fatalf("job settled as %q (err %q), stats %+v", jr.State, jr.Error, jr.Stats)
	}
	if got := generated.Load(); got != int64(j.Total) {
		t.Errorf("%d generations for %d points, want one per point", got, j.Total)
	}

	opts := j.plan.Opts
	opts.Workers = 1
	want, err := sweep.Run(j.plan.Axes, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Per cohort of 5 points at width 4: batches of 4 and 1.
	if jr.Stats.Batches != want.Stats.Batches || jr.Stats.BatchedPoints != want.Stats.BatchedPoints || want.Stats.Batches != 4 {
		t.Errorf("batches %d/%d points, direct sweep %d/%d, want 4/10",
			jr.Stats.Batches, jr.Stats.BatchedPoints, want.Stats.Batches, want.Stats.BatchedPoints)
	}
	for i, pt := range jr.Points {
		w := want.Points[i].Run
		if pt.Error != "" || pt.Result == nil || pt.Result.FinalTimeNs != w.FinalTimeNs || pt.Result.Iterations != w.Iterations {
			t.Errorf("point %d: %+v, direct sweep %+v", i, pt, w)
		}
	}
}
