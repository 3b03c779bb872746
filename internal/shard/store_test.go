package shard

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"dyncomp/internal/serve"
)

// writeSeedStore produces a store with one job, two chunk records and a
// terminal state through the public append API, and returns its path.
func writeSeedStore(t *testing.T) string {
	t.Helper()
	path := t.TempDir() + "/jobs.ndjson"
	st, recovered, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh store recovered %d jobs", len(recovered))
	}
	if err := st.AppendJob("job-000001", time.Unix(10, 0), faultReq, 2); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 2; ci++ {
		resp := &serve.ChunkResponse{
			Points: []serve.ChunkPoint{
				{Index: 2 * ci, SweepPoint: serve.SweepPoint{Params: map[string]int64{"seed": int64(ci)}}},
				{Index: 2*ci + 1, SweepPoint: serve.SweepPoint{Params: map[string]int64{"seed": int64(ci + 10)}}},
			},
			Batches: 1, BatchedPoints: 2,
		}
		if err := st.AppendChunk("job-000001", ci, "http://w", resp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendState("job-000001", "done", "", time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func reopen(t *testing.T, path string) []JobRecord {
	t.Helper()
	st, recovered, err := OpenStore(path)
	if err != nil {
		t.Fatalf("reopening corrupted store: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return recovered
}

// fileSize returns the store file's current length.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// A torn tail — the crash cut the last record mid-write, leaving no
// newline — is truncated on open: the job comes back at the last intact
// record boundary and the file shrinks to exactly that point.
func TestStoreTornTailTruncated(t *testing.T) {
	path := writeSeedStore(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	// Keep job + chunk 0 intact, then half of chunk 1's record.
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered := reopen(t, path)
	if len(recovered) != 1 {
		t.Fatalf("%d jobs recovered, want 1", len(recovered))
	}
	jr := recovered[0]
	if len(jr.Chunks) != 1 {
		t.Fatalf("%d chunks recovered, want 1 (the last intact boundary)", len(jr.Chunks))
	}
	if _, ok := jr.Chunks[0]; !ok {
		t.Fatal("chunk 0 lost even though its record was intact")
	}
	if jr.State != "" {
		t.Fatalf("state %q recovered from a truncated tail, want in-flight", jr.State)
	}
	if got, want := fileSize(t, path), int64(len(lines[0])+len(lines[1])); got != want {
		t.Fatalf("file is %d bytes after recovery, want %d (truncated to the last intact record)", got, want)
	}
}

// A garbage line poisons everything after it: replay stops at the first
// unparseable record even if later lines happen to be valid JSON — a
// tail written after corruption is not trustworthy.
func TestStoreGarbageLineEndsReplay(t *testing.T) {
	path := writeSeedStore(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	// job + chunk 0, then garbage, then the (intact) state record.
	mangled := lines[0] + lines[1] + "!!not json!!\n" + lines[3]
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered := reopen(t, path)
	if len(recovered) != 1 {
		t.Fatalf("%d jobs recovered, want 1", len(recovered))
	}
	jr := recovered[0]
	if len(jr.Chunks) != 1 || jr.State != "" {
		t.Fatalf("recovered %d chunks, state %q; want 1 chunk and in-flight (the post-garbage tail discarded)",
			len(jr.Chunks), jr.State)
	}
	if got, want := fileSize(t, path), int64(len(lines[0])+len(lines[1])); got != want {
		t.Fatalf("file is %d bytes, want %d", got, want)
	}
}

// An unknown record type — a future version's record, or corruption
// that still parses — ends the replay at the same boundary rule.
func TestStoreUnknownRecordTypeEndsReplay(t *testing.T) {
	path := writeSeedStore(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	mangled := lines[0] + lines[1] + `{"type":"hologram","job":"job-000001"}` + "\n" + lines[2] + lines[3]
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered := reopen(t, path)
	if len(recovered) != 1 || len(recovered[0].Chunks) != 1 || recovered[0].State != "" {
		t.Fatalf("recovered %+v, want one job with exactly chunk 0 and no terminal state", recovered)
	}
}

// The satellite's acceptance path: a coordinator whose store lost its
// tail — the terminal state and the last chunk record cut off mid-write
// — recovers to the last valid chunk boundary and finishes the job
// against the fleet instead of failing it: the re-run evaluates only
// the lost chunks, and the merged result is bit-identical to the
// single-process sweep.
func TestCoordinatorRecoversFromCorruptStore(t *testing.T) {
	workers := newFleet(t, 2)
	storePath := t.TempDir() + "/jobs.ndjson"

	c1, ts1 := newCoord(t, Config{Workers: workers, ChunkPoints: 2, StorePath: storePath})
	job := submitSweep(t, ts1.URL, faultReq)
	waitTerminal(t, ts1.URL, job.ID)
	ts1.Close()
	c1.Close()

	// Corrupt the tail: drop the state record entirely and tear the last
	// chunk record in half. 6 chunks were persisted; 5 survive.
	raw, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 8 { // job + 6 chunks + state
		t.Fatalf("store holds %d records, expected 8", len(lines))
	}
	var keep strings.Builder
	for _, l := range lines[:6] {
		keep.WriteString(l)
	}
	keep.WriteString(lines[6][:len(lines[6])/2])
	if err := os.WriteFile(storePath, []byte(keep.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	tr := newFaultTransport(nil)
	c2, err := New(Config{Workers: workers, ChunkPoints: 2, StorePath: storePath, Transport: tr})
	if err != nil {
		t.Fatalf("coordinator refused the corrupted store: %v", err)
	}
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		c2.Close()
	})

	res := waitTerminal(t, ts2.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))
	uniqueIndexParams(t, res.Points)

	// Exactly one chunk (2 points) was re-evaluated — the torn one.
	tr.mu.Lock()
	redone := len(tr.delivered)
	tr.mu.Unlock()
	if redone != 2 {
		t.Fatalf("recovery re-evaluated %d points, want the torn chunk's 2", redone)
	}
}

// A nil store (memory-only coordinator) accepts every append and
// remembers nothing — the no-durability configuration must not need
// guards at call sites.
func TestNilStoreIsValid(t *testing.T) {
	var st *Store
	if err := st.AppendJob("job-000001", time.Unix(0, 0), faultReq, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendChunk("job-000001", 0, "http://w", &serve.ChunkResponse{}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendState("job-000001", "done", "", time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// Appending to a closed store fails loudly instead of losing records
// silently.
func TestClosedStoreRejectsAppends(t *testing.T) {
	path := t.TempDir() + "/jobs.ndjson"
	st, _, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendState("job-000001", "done", "", time.Now()); err == nil {
		t.Fatal("append to a closed store succeeded")
	}
}
