package shard

import (
	"encoding/json"
	"net/http"
	"time"

	"dyncomp/internal/serve"
)

// ResultLine is one line of the GET /v1/sweeps/{id}/results NDJSON
// stream: either a point (Point set — one evaluated grid point, in
// arrival order) or the trailer (State set — the terminal state plus
// the fleet-level statistics), which is always the last line.
type ResultLine struct {
	Point *serve.ChunkPoint `json:"point,omitempty"`
	State string            `json:"state,omitempty"`
	Stats *serve.SweepStats `json:"stats,omitempty"`
}

// handleSweepResults serves GET /v1/sweeps/{id}/results as an NDJSON
// stream: one line per evaluated point in arrival order — streamed
// while the job runs, so a client consumes partial results long before
// the grid finishes — terminated by a trailer line carrying the
// terminal state and statistics. Connecting to a finished job replays
// every recorded point, which is how results of jobs completed before a
// coordinator restart are consumed.
func (c *Coordinator) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	j, ok := c.jobs.Lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	// write encodes one line under a fresh deadline: a consumer that
	// stops reading gets the connection torn down instead of pinning
	// this goroutine and the job's arrival buffer forever, while a job
	// that idles between batches — or settles long after its last point
	// — still gets its next line, the trailer included, out.
	write := func(line ResultLine) bool {
		if d := c.cfg.StreamWriteTimeout; d > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(d))
		}
		return enc.Encode(line) == nil
	}

	streamed := 0
	for {
		points, st, changed := j.arrivedSince(streamed)
		for i := range points {
			if !write(ResultLine{Point: &points[i]}) {
				return
			}
		}
		streamed += len(points)
		if len(points) > 0 && rc.Flush() != nil {
			return
		}
		if st.Terminal() {
			if write(ResultLine{State: st.String(), Stats: serve.ResultOf(j).Stats}) {
				_ = rc.Flush()
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-c.Ctx.Done():
			return
		case <-changed:
		}
	}
}
