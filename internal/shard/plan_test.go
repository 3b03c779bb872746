package shard

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"dyncomp/internal/serve"
)

// recordingTransport answers every chunk itself, with one empty point
// per requested index, and records the requests in arrival order.
type recordingTransport struct {
	mu   sync.Mutex
	reqs []serve.ChunkRequest
}

func (t *recordingTransport) RunChunk(_ context.Context, _ string, req serve.ChunkRequest) (*serve.ChunkResponse, error) {
	t.mu.Lock()
	t.reqs = append(t.reqs, req)
	t.mu.Unlock()
	resp := &serve.ChunkResponse{}
	for _, i := range req.Indices {
		resp.Points = append(resp.Points, serve.ChunkPoint{Index: i, SweepPoint: serve.SweepPoint{Params: map[string]int64{}}})
	}
	return resp, nil
}

// The coordinator's plan is pinned: a store written by an earlier build
// identifies its chunk results by their position in the plan, so the
// same spec must keep cutting the same chunks in the same order. The
// fork-join workers axis changes the structure, so the grid splits into
// two shape cohorts in order of first appearance; workers=0 fails to
// build and is failed up front; ChunkPoints 6 rounds down to one batch
// of 4, and only a cohort's last chunk runs partial lanes.
func TestPlanPinnedForReplay(t *testing.T) {
	req := serve.SweepRequest{
		Scenario: "forkjoin",
		Axes: []serve.Axis{
			{Name: "workers", Values: []int64{2, 3, 2, 2, 3, 2, 0, 2, 3, 2, 2, 3, 2, 2}},
		},
		Params:  map[string]int64{"tokens": 20},
		Options: serve.SweepOptions{BatchWidth: 4},
	}
	tr := &recordingTransport{}
	_, ts := newCoord(t, Config{Workers: []string{"http://worker"}, ChunkPoints: 6, Dispatch: 1, Transport: tr})
	job := submitSweep(t, ts.URL, req)
	res := waitTerminal(t, ts.URL, job.ID)
	if res.State != "done" {
		t.Fatalf("state %q, want done", res.State)
	}

	var got [][]int
	for _, r := range tr.reqs {
		got = append(got, r.Indices)
		if r.Options.BatchWidth != 4 {
			t.Fatalf("chunk %v dispatched at batch width %d, want 4", r.Indices, r.Options.BatchWidth)
		}
	}
	want := [][]int{{0, 2, 3, 5}, {7, 9, 10, 12}, {13}, {1, 4, 8, 11}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks %v, want %v", got, want)
	}

	if res.Stats == nil || res.Stats.Failed != 1 || res.Stats.Shapes != 2 {
		t.Fatalf("stats %+v, want 1 failed point and 2 shapes", res.Stats)
	}
	failed := res.Points[6]
	const wantErr = `sweep: point 6 (workers=0): scenario "forkjoin": zoo: fork-join needs at least one worker`
	if failed.Error != wantErr || failed.Params["workers"] != 0 || failed.Result != nil {
		t.Fatalf("point 6 = %+v, want error %q", failed, wantErr)
	}
}

// Recovery never re-admits a job: one admitted under a raised grid
// bound comes back as it was persisted, not failed by the default
// 100,000-point bound of the restarted process.
func TestRecoveryDoesNotReapplyGridBound(t *testing.T) {
	const points = 100001
	seeds := make([]int64, points)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	req := serve.SweepRequest{
		Engine:   "adaptive",
		Scenario: "didactic",
		Axes:     []serve.Axis{{Name: "seed", Values: seeds}},
		Params:   map[string]int64{"tokens": 1},
	}
	path := t.TempDir() + "/jobs.ndjson"
	st, _, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob("job-000001", time.Unix(10, 0), req, 16); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendState("job-000001", "cancelled", "context canceled", time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := New(Config{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	j, ok := c.jobs.Get("job-000001")
	if !ok {
		t.Fatal("job lost across restart")
	}
	snap := j.Snapshot()
	if snap.State != "cancelled" || snap.Total != points {
		t.Fatalf("recovered job %q with %d points (error %q), want cancelled with %d",
			snap.State, snap.Total, snap.Error, points)
	}
}
