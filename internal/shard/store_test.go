package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
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

// decodeCompact is the compaction that decodes every record to read its
// job: the reference the indexed Compact must match byte for byte.
func decodeCompact(raw []byte, live map[string]bool) []byte {
	var out bytes.Buffer
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break
		}
		line := raw[off : off+nl]
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Job == "" {
			break
		}
		if live[rec.Job] {
			out.Write(line)
			out.WriteByte('\n')
		}
		off += nl + 1
	}
	return out.Bytes()
}

// appendRound appends, for each job, a chunk record and then a state
// record, interleaving the jobs as concurrent chunk completions do.
func appendRound(t *testing.T, st *Store, jobs []string, chunk int) {
	t.Helper()
	for i, id := range jobs {
		resp := &serve.ChunkResponse{Points: []serve.ChunkPoint{
			{Index: chunk, SweepPoint: serve.SweepPoint{Params: map[string]int64{"seed": int64(i)}, EventRatio: 1.5}},
		}, Batches: 1, BatchedPoints: 1}
		if err := st.AppendChunk(id, chunk, "http://w", resp); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range jobs {
		if err := st.AppendState(id, "done", "", time.Unix(20, 0)); err != nil {
			t.Fatal(err)
		}
	}
}

// compactMatchesDecode compacts st down to live and checks the file is
// byte-identical to what the decoding compaction writes from the file
// before, and that the store still appends and replays after it.
func compactMatchesDecode(t *testing.T, st *Store, path string, live map[string]bool) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := decodeCompact(before, live)
	if _, _, err := st.Compact(live); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compacted store differs from the decoding compaction:\n got %q\nwant %q", got, want)
	}
	if err := st.AppendState("job-000002", "failed", "late", time.Unix(30, 0)); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, got) || bytes.Count(after, []byte("\n")) != bytes.Count(got, []byte("\n"))+1 {
		t.Fatalf("append after compaction did not add exactly one record: %q", after)
	}
}

// Compaction copies the indexed byte spans of the live jobs and decodes
// nothing; the file it writes is the one the decoding compaction
// writes, on appended records, on a replayed store whose torn tail was
// truncated, and after failed appends.
func TestCompactMatchesDecodingCompaction(t *testing.T) {
	jobs := []string{"job-000001", "job-000002", "job-000003"}
	live := map[string]bool{"job-000002": true}
	open := func(t *testing.T, path string) *Store {
		t.Helper()
		st, _, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	seed := func(t *testing.T) (*Store, string) {
		t.Helper()
		path := t.TempDir() + "/jobs.ndjson"
		st := open(t, path)
		for _, id := range jobs {
			if err := st.AppendJob(id, time.Unix(10, 0), faultReq, 2); err != nil {
				t.Fatal(err)
			}
		}
		appendRound(t, st, jobs, 0)
		return st, path
	}

	t.Run("appended", func(t *testing.T) {
		st, path := seed(t)
		compactMatchesDecode(t, st, path, live)
		// A second compaction works from the index the first one built.
		appendRound(t, st, jobs, 1)
		compactMatchesDecode(t, st, path, map[string]bool{"job-000002": true, "job-000003": true})
	})

	t.Run("replayed torn tail", func(t *testing.T) {
		st, path := seed(t)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"type":"chunk","job":"job-000002","chu`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		st = open(t, path)
		appendRound(t, st, jobs, 1)
		compactMatchesDecode(t, st, path, live)
	})

	t.Run("failed appends", func(t *testing.T) {
		st, path := seed(t)
		// A record that does not encode writes nothing.
		bad := &serve.ChunkResponse{Points: []serve.ChunkPoint{{SweepPoint: serve.SweepPoint{EventRatio: math.NaN()}}}}
		if err := st.AppendChunk("job-000002", 1, "http://w", bad); err == nil {
			t.Fatal("a NaN event ratio encoded")
		}
		// A write cut off mid-record is truncated away.
		if _, err := st.f.WriteString(`{"type":"state","job":"job-0`); err != nil {
			t.Fatal(err)
		}
		if err := st.rollback(errors.New("short write")); err == nil || st.f == nil {
			t.Fatalf("rollback: %v, store open %v; want the write's error and an open store", err, st.f != nil)
		}
		appendRound(t, st, jobs, 1)
		compactMatchesDecode(t, st, path, live)
	})
}

// An append whose write fails and whose rollback cannot truncate closes
// the store: the file keeps exactly its indexed records, and nothing
// is appended behind a record replay would discard.
func TestFailedRollbackClosesStore(t *testing.T) {
	path := writeSeedStore(t)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// A read-only handle fails both the write and the truncate.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st.f.Close()
	st.f = ro
	if err := st.AppendState("job-000001", "failed", "", time.Now()); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	if err := st.AppendState("job-000001", "failed", "", time.Now()); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("append after a failed rollback: %v, want the store closed", err)
	}
	if _, _, err := st.Compact(map[string]bool{}); err == nil {
		t.Fatal("compaction of a closed store succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the store file changed")
	}
}
