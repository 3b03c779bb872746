package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"dyncomp/internal/sweep"
)

// This file is the worker side of the distributed sweep fabric
// (internal/shard): POST /v1/chunks evaluates one coordinator-assigned
// chunk — a set of row-major grid indices of a sweep the coordinator
// planned — synchronously, against the worker's process-wide derivation
// cache. The coordinator routes whole shape cohorts to one worker, so
// the cache stays hot across the chunks of a job, and aligns chunk cuts
// to the batch width, so the batched-lane accounting of the fleet
// matches the single-process sweep bit for bit.

// ChunkRequest is the body of POST /v1/chunks: a full sweep description
// (identical to POST /v1/sweeps, so the worker validates and maps
// options exactly as a local job would) plus the grid indices this
// worker is asked to evaluate.
type ChunkRequest struct {
	SweepRequest
	Indices []int `json:"indices"`
}

// ChunkPoint is one evaluated point of a chunk: the sweep wire point
// plus its row-major index in the full grid, which is what the
// coordinator merges results back into grid order by.
type ChunkPoint struct {
	Index int `json:"index"`
	SweepPoint
}

// ChunkResponse is the body of a successful POST /v1/chunks. Points
// come back in request-indices order. Batches/BatchedPoints report the
// batched-lane evaluations this chunk consumed, feeding the
// coordinator's fleet-wide occupancy accounting.
type ChunkResponse struct {
	Points        []ChunkPoint `json:"points"`
	Batches       int          `json:"batches,omitempty"`
	BatchedPoints int          `json:"batched_points,omitempty"`
}

// handleChunkRun serves POST /v1/chunks: validate the embedded sweep
// request through the same path as a job submission, then evaluate just
// the requested indices on the caller's request context — a coordinator
// abandoning the chunk (retry elsewhere, job cancel) cancels the
// evaluation here too.
func (s *Server) handleChunkRun(w http.ResponseWriter, r *http.Request) {
	var req ChunkRequest
	if aerr := DecodeJSON(w, r, &req); aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	plan, aerr := s.prepareSweep(req.SweepRequest)
	if aerr != nil {
		WriteError(w, aerr.Status, aerr.Code, "%s", aerr.Msg)
		return
	}
	if len(req.Indices) == 0 {
		WriteError(w, http.StatusBadRequest, CodeInvalidIndices, "no indices")
		return
	}
	if plan.Opts.Sample.Enabled() {
		// A chunk sees only its shard of the grid; the surrogate needs the
		// whole grid to choose what to simulate. Sampled sweeps stay
		// single-process.
		WriteError(w, http.StatusBadRequest, CodeInvalidSample,
			"options.sample_tolerance is not supported on chunk evaluation")
		return
	}
	if !s.admitPoints(w, r, len(req.Indices)) {
		return
	}

	opts := plan.Opts
	opts.Cache = s.cache
	res, err := sweep.RunIndicesContext(r.Context(), plan.Axes, req.Indices, plan.Gen, opts)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			WriteError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
				"chunk evaluation exceeded the request deadline")
			return
		}
		if errors.Is(err, context.Canceled) {
			// The coordinator went away; there is nobody to answer.
			return
		}
		// GridSelect rejected the selection (out of range, duplicate);
		// engine resolution already passed in prepareSweep.
		WriteError(w, http.StatusBadRequest, CodeInvalidIndices, "%v", err)
		return
	}
	s.metrics.inc(metricChunks, fmt.Sprintf(`engine=%q`, plan.Engine))
	s.chunkPoints.Add(int64(len(res.Points)))

	out := ChunkResponse{
		Points:        make([]ChunkPoint, 0, len(res.Points)),
		Batches:       res.Stats.Batches,
		BatchedPoints: res.Stats.BatchedPoints,
	}
	for _, pr := range res.Points {
		out.Points = append(out.Points, ChunkPointOf(pr))
	}
	WriteJSON(w, http.StatusOK, out)
}

// ChunkPointOf renders one evaluated or failed sweep point in its chunk
// wire form. The coordinator renders the points it fails itself —
// plan-time failures and chunks no worker could evaluate — through it
// too, so they read exactly as a worker's would.
func ChunkPointOf(pr sweep.PointResult) ChunkPoint {
	return ChunkPoint{Index: pr.Point.Index, SweepPoint: pointJSON(pr)}
}
