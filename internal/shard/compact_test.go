package shard

// Store compaction tests: evicting settled jobs shrinks the on-disk
// log, a restart over the compacted store replays only the live jobs,
// and the torn-tail recovery contract survives compaction.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

func storeSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// MaxJobs eviction drops the oldest settled job, compacts the store
// past it, and a coordinator restarted over the compacted store —
// including a torn tail appended after compaction — replays exactly the
// surviving job with full results.
func TestEvictionCompactsStoreAcrossRestart(t *testing.T) {
	workers := newFleet(t, 2)
	storePath := t.TempDir() + "/jobs.ndjson"
	c1, ts1 := newCoord(t, Config{
		Workers: workers, ChunkPoints: 2, StorePath: storePath, MaxJobs: 1,
	})

	a := submitSweep(t, ts1.URL, faultReq)
	waitTerminal(t, ts1.URL, a.ID)
	b := submitSweep(t, ts1.URL, faultReq)
	waitTerminal(t, ts1.URL, b.ID)

	before := storeSize(t, storePath)
	c1.jobs.Evict(time.Now(), 0, 1)
	if n := c1.Metrics.Count("dyncomp_coord_jobs_evicted_total", ""); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
	if n := c1.Metrics.Count(metricCompactions, ""); n != 1 {
		t.Fatalf("%d compactions, want 1", n)
	}
	if after := storeSize(t, storePath); after >= before {
		t.Fatalf("store %d bytes after compaction, was %d — nothing reclaimed", after, before)
	}

	// The evicted job is gone from the API; the survivor is intact.
	resp, err := http.Get(ts1.URL + "/v1/sweeps/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job answered %d, want 404", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != "job_not_found" {
		t.Fatalf("evicted job code %q, want job_not_found", code)
	}
	assertBitIdentical(t, getResult(t, ts1.URL, b.ID), localSweep(t, faultReq))

	// The store still appends after compaction (the fd was swapped): a
	// third job persists and survives too.
	cJob := submitSweep(t, ts1.URL, faultReq)
	waitTerminal(t, ts1.URL, cJob.ID)

	ts1.Close()
	c1.Close()

	// Tear the tail of the compacted store: recovery must still truncate
	// to the last intact record.
	f, err := os.OpenFile(storePath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"state","job":"job-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := New(Config{Workers: workers, ChunkPoints: 2, StorePath: storePath})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		c2.Close()
	})
	if _, ok := c2.jobs.Get(a.ID); ok {
		t.Fatalf("evicted job %s resurrected by restart", a.ID)
	}
	assertBitIdentical(t, getResult(t, ts2.URL, b.ID), localSweep(t, faultReq))
	assertBitIdentical(t, getResult(t, ts2.URL, cJob.ID), localSweep(t, faultReq))
}

// TTL eviction through the janitor: settled jobs age out without any
// explicit call, live jobs stay.
func TestJobTTLEvictsSettledJobs(t *testing.T) {
	workers := newFleet(t, 2)
	c, ts := newCoord(t, Config{
		Workers: workers, ChunkPoints: 2,
		JobTTL: 50 * time.Millisecond,
	})

	job := submitSweep(t, ts.URL, faultReq)
	waitTerminal(t, ts.URL, job.ID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("settled job never aged out past the TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := c.Metrics.Count("dyncomp_coord_jobs_evicted_total", ""); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
}

// A recovered job whose spec no longer compiles fails at recovery time:
// it reports when it finished and lives out its TTL like any other
// settled job instead of being evicted on the first janitor tick.
func TestRecoveredUncompilableJobKeepsItsTTL(t *testing.T) {
	storePath := t.TempDir() + "/jobs.ndjson"
	st, _, err := OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	gone := faultReq
	gone.Scenario = "no-such-scenario"
	if err := st.AppendJob("job-000001", time.Now().Add(-time.Minute), gone, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	before := time.Now()
	c, err := New(Config{StorePath: storePath, JobTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if n := c.jobs.Evict(time.Now(), time.Hour, 0); n != 0 {
		t.Fatalf("evicted %d jobs, want the recovered job kept for its TTL", n)
	}
	j, ok := c.jobs.Get("job-000001")
	if !ok {
		t.Fatal("recovered job missing")
	}
	snap := j.Snapshot()
	if snap.State != "failed" || snap.Error == "" {
		t.Fatalf("recovered job %q (%q), want failed with the compile error", snap.State, snap.Error)
	}
	if snap.Finished == nil || snap.Finished.Before(before) {
		t.Fatalf("recovered job finished at %v, want its recovery time (after %v)", snap.Finished, before)
	}
}

// A job that settled before a restart keeps the instant it finished:
// GET reports it, and the job lives out its TTL from it, not from its
// creation. The job here was created a minute before it ran (it was
// resumed from the store), so settling it at its creation instant would
// evict it on the first sweep of a 30 ms TTL.
func TestRecoveredJobKeepsItsFinishTime(t *testing.T) {
	workers := newFleet(t, 2)
	storePath := t.TempDir() + "/jobs.ndjson"
	st, _, err := OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob("job-000001", time.Now().Add(-time.Minute), faultReq, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	c1, ts1 := newCoord(t, Config{Workers: workers, ChunkPoints: 2, StorePath: storePath})
	if res := waitTerminal(t, ts1.URL, "job-000001"); res.State != "done" {
		t.Fatalf("resumed job %q, want done", res.State)
	}
	j1, _ := c1.jobs.Get("job-000001")
	finished := j1.Snapshot().Finished
	ts1.Close()
	c1.Close()

	c2, ts2 := newCoord(t, Config{Workers: workers, ChunkPoints: 2, StorePath: storePath})
	j2, ok := c2.jobs.Get("job-000001")
	if !ok {
		t.Fatal("recovered job missing")
	}
	if got := getResult(t, ts2.URL, "job-000001").Finished; got == nil || !got.Equal(*finished) {
		t.Fatalf("recovered job finished at %v, want %v", got, finished)
	}
	if got := j2.Snapshot().Finished; got == nil || !got.Equal(*finished) {
		t.Fatalf("recovered job settled at %v, want %v", got, finished)
	}
	if n := c2.jobs.Evict(finished.Add(time.Millisecond), 30*time.Millisecond, 0); n != 0 {
		t.Fatalf("evicted %d jobs 1 ms after the recovered job finished, want it kept for its 30 ms TTL", n)
	}
}
