package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dyncomp/internal/serve"
)

// Store is the coordinator's narrow durability layer: an append-only
// file of newline-delimited JSON records — one per submitted job, one
// per completed chunk, one per terminal state transition. It is not a
// database: replay is a single forward scan, and recovery from a torn
// write is "truncate to the last intact record". Everything else (chunk
// plans, point order, totals) is recomputed deterministically from the
// persisted sweep spec, so the store only has to remember what cannot
// be replanned: which job was asked for, which chunk results already
// exist, and how finished jobs ended.
//
// A nil *Store is valid and remembers nothing — an in-memory-only
// coordinator for tests and throwaway fleets.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	recs []span // every record of the file, in order
}

// span indexes one record of the store file: its job and the offset
// just past its newline. The file is always exactly the indexed
// records, so compaction copies byte spans without decoding them.
type span struct {
	job string
	end int64
}

// record is the single on-disk line format; Type selects which fields
// are meaningful.
type record struct {
	Type string `json:"type"` // "job", "chunk" or "state"
	Job  string `json:"job"`

	// Type "job": the submitted spec (with the effective batch width
	// pinned) plus the chunk-size target in force at submission — the
	// two inputs that make replanning after a restart cut identical
	// chunks even if the coordinator was restarted with different
	// flags.
	Created     *time.Time          `json:"created,omitempty"`
	Spec        *serve.SweepRequest `json:"spec,omitempty"`
	ChunkPoints int                 `json:"chunk_points,omitempty"`

	// Type "chunk": one completed chunk, identified by its position in
	// the deterministic plan.
	Chunk         *int               `json:"chunk,omitempty"`
	Worker        string             `json:"worker,omitempty"`
	Batches       int                `json:"batches,omitempty"`
	BatchedPoints int                `json:"batched_points,omitempty"`
	Points        []serve.ChunkPoint `json:"points,omitempty"`

	// Type "state": the terminal state and when the job settled.
	State    string     `json:"state,omitempty"`
	Error    string     `json:"error,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// ChunkRecord is one recovered chunk result.
type ChunkRecord struct {
	Worker        string
	Batches       int
	BatchedPoints int
	Points        []serve.ChunkPoint
}

// JobRecord is one job reassembled from the record stream: the spec to
// replan from, every chunk already completed, and the terminal state if
// the job settled ("" when it was still in flight — the restarted
// coordinator resumes it). Finished is when it settled; it is zero for
// a state written before the store recorded it.
type JobRecord struct {
	ID          string
	Created     time.Time
	Spec        serve.SweepRequest
	ChunkPoints int
	Chunks      map[int]ChunkRecord
	State       string
	Error       string
	Finished    time.Time
}

// OpenStore opens (or creates) the store file, replays every intact
// record into per-job histories, and truncates any torn tail — a crash
// mid-append must cost at most the record being written, never the
// job. Records are validated individually: a line that is not
// \n-terminated, not JSON, or not a known record type ends the replay
// and everything from it on is discarded.
func OpenStore(path string) (*Store, []JobRecord, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}

	var (
		jobs  = map[string]*JobRecord{}
		order []string
		recs  []span
		valid int64 // byte offset past the last intact record
	)
replay:
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // torn tail: no terminator
		}
		line := raw[off : off+nl]
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Job == "" {
			break
		}
		switch rec.Type {
		case "job":
			if rec.Spec == nil {
				break replay
			}
			jr := &JobRecord{ID: rec.Job, Spec: *rec.Spec, ChunkPoints: rec.ChunkPoints, Chunks: map[int]ChunkRecord{}}
			if rec.Created != nil {
				jr.Created = *rec.Created
			}
			if _, dup := jobs[rec.Job]; !dup {
				jobs[rec.Job] = jr
				order = append(order, rec.Job)
			}
		case "chunk":
			if rec.Chunk == nil {
				break replay
			}
			if jr, ok := jobs[rec.Job]; ok {
				jr.Chunks[*rec.Chunk] = ChunkRecord{
					Worker:        rec.Worker,
					Batches:       rec.Batches,
					BatchedPoints: rec.BatchedPoints,
					Points:        rec.Points,
				}
			}
		case "state":
			if jr, ok := jobs[rec.Job]; ok {
				jr.State, jr.Error = rec.State, rec.Error
				if rec.Finished != nil {
					jr.Finished = *rec.Finished
				}
			}
		default:
			// Unknown record type: written by a future version or
			// corruption that still parses. Stop here; the tail is
			// not trustworthy.
			break replay
		}
		off += nl + 1
		valid = int64(off)
		recs = append(recs, span{job: rec.Job, end: valid})
	}

	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}

	out := make([]JobRecord, 0, len(order))
	for _, id := range order {
		out = append(out, *jobs[id])
	}
	return &Store{f: f, recs: recs}, out, nil
}

// size is the length of the indexed records.
func (st *Store) size() int64 {
	if len(st.recs) == 0 {
		return 0
	}
	return st.recs[len(st.recs)-1].end
}

// append writes one record followed by a newline and syncs — each
// record is a recovery point — and indexes it.
func (st *Store) append(rec record) error {
	if st == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return fmt.Errorf("shard: store closed")
	}
	if _, err := st.f.Write(data); err != nil {
		return st.rollback(err)
	}
	if err := st.f.Sync(); err != nil {
		return st.rollback(err)
	}
	st.recs = append(st.recs, span{job: rec.Job, end: st.size() + int64(len(data))})
	return nil
}

// rollback undoes a failed append: it truncates the file back to its
// last indexed record, so the file stays exactly the indexed records.
// If that fails too, the store closes — a later record would follow a
// torn one, which replay discards — as Compact does when it loses its
// handle.
func (st *Store) rollback(err error) error {
	if terr := st.f.Truncate(st.size()); terr != nil {
		st.f.Close()
		st.f = nil
		return errors.Join(err, terr)
	}
	return err
}

// AppendJob records a submitted job.
func (st *Store) AppendJob(id string, created time.Time, spec serve.SweepRequest, chunkPoints int) error {
	return st.append(record{Type: "job", Job: id, Created: &created, Spec: &spec, ChunkPoints: chunkPoints})
}

// AppendChunk records one completed chunk.
func (st *Store) AppendChunk(id string, chunk int, worker string, resp *serve.ChunkResponse) error {
	return st.append(record{
		Type: "chunk", Job: id, Chunk: &chunk, Worker: worker,
		Batches: resp.Batches, BatchedPoints: resp.BatchedPoints, Points: resp.Points,
	})
}

// AppendState records a terminal state and the instant the job settled.
func (st *Store) AppendState(id, state, errMsg string, finished time.Time) error {
	return st.append(record{Type: "state", Job: id, State: state, Error: errMsg, Finished: &finished})
}

// Compact rewrites the store keeping only records of jobs in live,
// dropping everything the coordinator has evicted — the log stays
// proportional to the retained jobs instead of the all-time history.
// It copies the live records' byte spans by the index, decoding none.
// The rewrite goes through a synced temp file renamed over the
// original, so a crash at any instant leaves either the old complete
// log or the new complete log, never a mix.
func (st *Store) Compact(live map[string]bool) (kept, dropped int, err error) {
	if st == nil {
		return 0, 0, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return 0, 0, fmt.Errorf("shard: store closed")
	}
	raw := make([]byte, st.size())
	if _, err := st.f.ReadAt(raw, 0); err != nil {
		return 0, 0, err
	}
	var (
		out  bytes.Buffer
		next []span
		from int64
	)
	for _, r := range st.recs {
		if live[r.job] {
			out.Write(raw[from:r.end])
			next = append(next, span{job: r.job, end: int64(out.Len())})
		}
		from = r.end
	}
	kept, dropped = len(next), len(st.recs)-len(next)

	path := st.f.Name()
	tmp := path + ".compact"
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	if _, err := nf.Write(out.Bytes()); err != nil {
		nf.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := nf.Close(); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	reopened, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The rename landed but we lost our handle to the new file;
		// further appends would go to the unlinked old inode. Fail closed.
		st.f.Close()
		st.f = nil
		return kept, dropped, err
	}
	st.f.Close()
	st.f, st.recs = reopened, next
	return kept, dropped, nil
}

// Close closes the store file.
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}
