package serve

import (
	"context"
	"fmt"
	"net/http"

	"dyncomp/internal/model"
	"dyncomp/internal/sweep"
)

// This file is the chunk evaluation of both front ends. POST
// /v1/chunks is the worker side of the distributed sweep fabric
// (internal/shard): it evaluates one coordinator-assigned chunk — a set
// of row-major grid indices of a sweep the coordinator planned —
// synchronously, against the worker's process-wide derivation cache. A
// server's own jobs run their chunks through the same evaluation. The
// coordinator routes whole shape cohorts to one worker, so the cache
// stays hot across the chunks of a job, and aligns chunk cuts to the
// batch width, so the batched-lane accounting of the fleet matches the
// single-process sweep bit for bit.

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
func (s *Server) handleChunkRun(w http.ResponseWriter, r *http.Request) *RequestError {
	var req ChunkRequest
	if aerr := DecodeJSON(w, r, &req); aerr != nil {
		return aerr
	}
	plan, aerr := CompileSweep(req.SweepRequest, s.defaults())
	if aerr != nil {
		return aerr
	}
	if len(req.Indices) == 0 {
		return requestErrorf(http.StatusBadRequest, CodeInvalidIndices, "no indices")
	}
	if plan.Opts.Sample.Enabled() {
		// A chunk sees only its shard of the grid; the surrogate needs the
		// whole grid to choose what to simulate. Sampled sweeps stay
		// single-process.
		return requestErrorf(http.StatusBadRequest, CodeInvalidSample,
			"options.sample_tolerance is not supported on chunk evaluation")
	}
	if aerr := s.admitPoints(w, r, len(req.Indices)); aerr != nil {
		return aerr
	}

	res, err := s.evalChunk(r.Context(), plan, req.Indices, nil)
	if err != nil {
		// Past the context errors, GridSelect rejected the selection (out
		// of range, duplicate); engine resolution already passed in
		// CompileSweep.
		return evalError(err, "chunk evaluation", requestErrorf(http.StatusBadRequest, CodeInvalidIndices, "%v", err))
	}
	s.Metrics.Add(metricChunks, fmt.Sprintf(`engine=%q`, plan.Engine), 1)
	s.Metrics.Add(metricChunkPoints, "", int64(len(res.Points)))
	WriteJSON(w, http.StatusOK, chunkResponse(res))
	return nil
}

// evalChunk evaluates the given row-major grid indices of a compiled
// sweep on the server's derivation cache: the work of POST /v1/chunks,
// and of every chunk of this server's own jobs. archs, when non-nil,
// are the architectures the job's plan generated for the indices, so
// the chunk is evaluated without generating its points again. A sampled
// sweep is evaluated whole, through the surrogate sampler: its only
// chunk is the grid.
func (s *Server) evalChunk(ctx context.Context, plan *SweepPlan, indices []int, archs []*model.Architecture) (*sweep.Result, error) {
	opts := plan.Opts
	opts.Cache = s.cache
	switch {
	case opts.Sample.Enabled():
		return sweep.RunContext(ctx, plan.Axes, plan.Gen, opts)
	case archs != nil:
		pts, err := sweep.GridSelect(plan.Axes, indices)
		if err != nil {
			return nil, err
		}
		return sweep.RunPlannedContext(ctx, pts, archs, plan.Gen, opts)
	}
	return sweep.RunIndicesContext(ctx, plan.Axes, indices, plan.Gen, opts)
}

// chunkResponse renders an evaluated chunk in its wire form.
func chunkResponse(res *sweep.Result) ChunkResponse {
	out := ChunkResponse{
		Points:        make([]ChunkPoint, 0, len(res.Points)),
		Batches:       res.Stats.Batches,
		BatchedPoints: res.Stats.BatchedPoints,
	}
	for _, pr := range res.Points {
		out.Points = append(out.Points, chunkPointOf(pr))
	}
	return out
}

// chunkPointOf renders one evaluated or failed sweep point in its chunk
// wire form. A job renders the points it fails itself — plan-time
// failures and chunks no evaluator could run — through it too, so they
// read exactly as an evaluated chunk's would.
func chunkPointOf(pr sweep.PointResult) ChunkPoint {
	return ChunkPoint{Index: pr.Point.Index, SweepPoint: pointJSON(pr)}
}
