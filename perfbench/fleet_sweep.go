package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dyncomp/internal/serve"
	"dyncomp/internal/shard"
	"dyncomp/internal/sweep"
)

// fleetSweep runs sweep jobs through a shard coordinator over two
// in-process serve workers, with the NDJSON job store in a temporary
// directory, as docs/OPERATIONS.md deploys it. One client submits a job
// and reads its /results stream to the trailer. It is the only workload
// that reaches coordinator dispatch, the worker round trip, store
// appends and the results stream.
var fleetSweep = &workload{
	name:          "fleet_sweep",
	clients:       1,
	warmRotations: 2,
	setup:         setupFleetSweep,
}

const (
	fleetWorkers     = 2
	fleetJobs        = 2 // distinct jobs in one rotation
	fleetChunkPoints = 4
	fleetDispatch    = 2
	fleetBatchWidth  = 4
)

type fleetJob struct {
	body   []byte
	golden []sweep.PointStats // by grid index
}

type fleetSweepInst struct {
	dir     string
	workers []*serve.Server
	wts     []*httptest.Server
	coord   *shard.Coordinator
	cts     *httptest.Server
	client  *http.Client
	rtt     *http.Client // the coordinator's client
	jobs    []fleetJob

	rec       atomic.Pointer[recorder] // set while a traced op runs
	curOp     atomic.Int64             // the op in flight, for chunk spans
	engineNs  atomic.Int64             // engine wall time in traced chunks
	tracedOps int
}

func setupFleetSweep(seed int64, traced bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fleetSweepInst{client: newClient()}
	periods := distinct(rng, 4, func() int64 { return 1100 + 20*rng.Int63n(31) })
	for j := 0; j < fleetJobs; j++ {
		req := serve.SweepRequest{
			Scenario: "didactic",
			Axes: []serve.Axis{
				{Name: "stages", Values: []int64{1, 2}},
				{Name: "period", Values: periods},
				{Name: "seed", Values: distinct(rng, 2, func() int64 { return 1 + rng.Int63n(1<<20) })},
			},
			Params:  map[string]int64{"tokens": 500},
			Options: serve.SweepOptions{Workers: 1, BatchWidth: fleetBatchWidth},
		}
		plan, rerr := serve.CompileSweep(req, serve.SweepDefaults{})
		if rerr != nil {
			return nil, rerr
		}
		res, err := sweepRun(plan)
		if err != nil {
			return nil, err
		}
		var job fleetJob
		for _, pr := range res.Points {
			job.golden = append(job.golden, pr.Run)
		}
		if job.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		f.jobs = append(f.jobs, job)
	}

	var err error
	if f.dir, err = os.MkdirTemp("", "perfbench-fleet-"); err != nil {
		return nil, err
	}
	// The coordinator's consistent-hash ring places each shape on a
	// worker by the worker's URL. With the listeners' random ports in
	// the URLs, whether the job's two shapes share a worker, and so
	// whether its chunks run one at a time, would change from process
	// to process; fixed names, which the coordinator's dialer resolves
	// to the listeners, make the placement the same in every run.
	var urls []string
	addrs := map[string]string{}
	for i := 0; i < fleetWorkers; i++ {
		s := serve.New(serve.Config{SweepWorkers: 1})
		var h http.Handler = s.Handler()
		if traced {
			h = handlerSpans{next: h, rec: &f.rec, prefix: "shard.worker_", onBody: f.chunkBody}
		}
		ts := httptest.NewServer(h)
		f.workers = append(f.workers, s)
		f.wts = append(f.wts, ts)
		name := fmt.Sprintf("worker-%d.perfbench:80", i)
		urls = append(urls, "http://"+name)
		addrs[name] = ts.Listener.Addr().String()
	}
	f.rtt = newClient()
	tr := f.rtt.Transport.(*http.Transport)
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return dial(ctx, network, addr)
	}
	cfg := shard.Config{
		Workers:     urls,
		StorePath:   filepath.Join(f.dir, "jobs.ndjson"),
		ChunkPoints: fleetChunkPoints,
		Dispatch:    fleetDispatch,
		MaxJobs:     16,
		Client:      f.rtt,
	}
	if traced {
		cfg.Client = &http.Client{Transport: chunkRTT{next: f.rtt.Transport, f: f}}
	}
	if f.coord, err = shard.New(cfg); err != nil {
		f.close()
		return nil, err
	}
	f.cts = httptest.NewServer(f.coord.Handler())
	return f, nil
}

func sweepRun(plan *serve.SweepPlan) (*sweep.Result, error) {
	res, err := sweep.Run(plan.Axes, plan.Gen, plan.Opts)
	if err != nil {
		return nil, err
	}
	if res.Stats.Failed > 0 {
		return nil, fmt.Errorf("golden sweep: %d points failed", res.Stats.Failed)
	}
	return res, nil
}

func (f *fleetSweepInst) rotation() int { return fleetJobs }

func (f *fleetSweepInst) op(_, n int, t *opTrace) (int, error) {
	job := f.jobs[n%fleetJobs]
	// The chunk round-tripper and worker middleware record only while
	// a traced op is in flight.
	f.rec.Store(nil)
	if t != nil {
		f.curOp.Store(t.op)
		f.rec.Store(t.rec)
		f.tracedOps++
	}
	start := time.Now()
	resp, err := send(f.client, http.MethodPost, f.cts.URL+"/v1/sweeps", job.body, nil)
	if err != nil {
		return 0, err
	}
	var accepted serve.Job
	err = decodeBody(resp, &accepted)
	t.span("shard.submit", "", 0, start, time.Now())
	if err != nil {
		return 0, err
	}

	resp, err = send(f.client, http.MethodGet, f.cts.URL+"/v1/sweeps/"+accepted.ID+"/results", nil, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	got := make([]*serve.ChunkPoint, len(job.golden))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var line shard.ResultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return 0, fmt.Errorf("results line: %w", err)
		}
		if line.Point != nil {
			if i := line.Point.Index; i < 0 || i >= len(got) || got[i] != nil {
				return 0, fmt.Errorf("job %s: unexpected point index %d", accepted.ID, i)
			}
			got[line.Point.Index] = line.Point
			continue
		}
		if line.State != "done" || line.Stats == nil || line.Stats.Failed > 0 {
			return 0, fmt.Errorf("job %s ended %s", accepted.ID, line.State)
		}
		return len(got), checkChunkPoints(got, job.golden)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("job %s: results ended without a trailer", accepted.ID)
}

func checkChunkPoints(got []*serve.ChunkPoint, golden []sweep.PointStats) error {
	for i, p := range got {
		if p == nil {
			return fmt.Errorf("point %d missing", i)
		}
		g := golden[i]
		if p.Error != "" || p.Result == nil {
			return fmt.Errorf("point %d failed: %s", i, p.Error)
		}
		if r := p.Result; r.FinalTimeNs != g.FinalTimeNs || r.Events != g.Events || r.Activations != g.Activations {
			return fmt.Errorf("point %d: final %d events %d activations %d, want %d %d %d",
				i, r.FinalTimeNs, r.Events, r.Activations, g.FinalTimeNs, g.Events, g.Activations)
		}
	}
	return nil
}

// chunkRTT is the coordinator's HTTP transport in traced runs: it times
// each chunk round trip and passes its span to the worker in headers.
type chunkRTT struct {
	next http.RoundTripper
	f    *fleetSweepInst
}

func (c chunkRTT) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := c.f.rec.Load()
	if rec == nil || req.URL.Path != "/v1/chunks" {
		return c.next.RoundTrip(req)
	}
	op := c.f.curOp.Load()
	id := rec.newID()
	req = req.Clone(req.Context())
	setSpanHeaders(req.Header, op, id)
	req.Header.Set(hdrKind, "chunk")
	start := time.Now()
	resp, err := c.next.RoundTrip(req)
	if err == nil {
		// The round trip ends when the body has been read.
		resp.Body = &endOnClose{ReadCloser: resp.Body, done: func() {
			rec.add(span{ID: id, Parent: op, Op: op, Name: "shard.chunk_rtt", Start: start, End: time.Now()})
		}}
	}
	return resp, err
}

// chunkBody adds the engine time of a traced chunk response.
func (f *fleetSweepInst) chunkBody(_ string, body []byte) {
	var resp serve.ChunkResponse
	if json.Unmarshal(body, &resp) != nil {
		return
	}
	for _, p := range resp.Points {
		if p.Result != nil {
			f.engineNs.Add(p.Result.WallNs)
		}
	}
}

func (f *fleetSweepInst) layers(rec *recorder) (map[string]float64, error) {
	lt := selfTimes(rec.snapshot())
	rtt, worker := lt["shard.chunk_rtt"], lt["shard.worker_chunk"]
	if rtt.n == 0 || worker.n == 0 || f.tracedOps == 0 {
		return nil, fmt.Errorf("traced phase recorded no chunk")
	}
	retries, err := scrapeMetric(f.client, f.cts.URL+"/metrics", "dyncomp_coord_chunk_retries_total")
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"shard.submit_ms":          ms(lt["shard.submit"].meanWall()),
		"shard.chunk_rtt_ms":       ms(rtt.meanWall()),
		"shard.worker_chunk_ms":    ms(worker.meanWall()),
		"shard.chunk_engine_share": float64(f.engineNs.Load()) / float64(worker.wall.Nanoseconds()),
		"shard.retries":            retries,
		"shard.chunks_per_job":     float64(rtt.n) / float64(f.tracedOps),
	}, nil
}

func (f *fleetSweepInst) close() {
	if f.cts != nil {
		f.cts.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for i, ts := range f.wts {
		ts.Close()
		f.workers[i].Close()
	}
	f.client.CloseIdleConnections()
	f.rtt.CloseIdleConnections()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
