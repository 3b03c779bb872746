package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"dyncomp/internal/archjson"
	"dyncomp/internal/engine"
	"dyncomp/internal/serve"
	"dyncomp/internal/zoo"
)

// httpMixed drives one in-process serve.Server over a loopback listener
// with two closed-loop clients. Most requests are small cached
// POST /v1/run calls; every inlineEvery-th is an inline-architecture
// run and the last of each rotation a small sweep job followed to its
// final SSE event. Simulation is tiny, so HTTP decode, admission,
// archjson, JSON encoding and the job lifecycle dominate.
var httpMixed = &workload{
	name:          "http_mixed",
	clients:       httpClients,
	warmRotations: 4,
	setup:         setupHTTPMixed,
}

const (
	httpClients  = 2
	httpRotation = 50
	inlineEvery  = 25
	inlineSlot   = 12 // op j is inline when j%inlineEvery == inlineSlot
	jobSlot      = httpRotation - 1
	// Run requests draw the pipeline's size from xsizes shapes and its
	// token count from [minTokens, maxTokens].
	minXSize  = 4
	xsizes    = 4
	minTokens = 20
	maxTokens = 80
)

func runParams(xsize, tokens, seed int64) zoo.ParamMap {
	return zoo.ParamMap{"xsize": xsize, "tokens": tokens, "seed": seed}
}

// golden is the outcome a request must reproduce.
type golden struct {
	finalTimeNs int64
	events      int64
}

type httpRequest struct {
	kind   string // run, run_inline or sweep
	body   []byte
	golden golden            // run kinds
	points map[string]golden // sweep: by the point's params
}

type httpMixedInst struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	ops    [][]httpRequest // per client, one rotation
	inline []byte          // the inline architecture spec

	rec    atomic.Pointer[recorder] // installed by the first traced op
	wallNs atomic.Int64             // engine wall time of traced runs
}

func setupHTTPMixed(seed int64, traced bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	h := &httpMixedInst{client: newClient()}
	eq, err := engine.Lookup("equivalent")
	if err != nil {
		return nil, err
	}
	pipeline, err := zoo.LookupScenario("pipeline")
	if err != nil {
		return nil, err
	}
	// Golden final times for every run request the seed can draw.
	archSeed := 1 + rng.Int63n(1<<20)
	runGolden := map[[2]int64]golden{}
	for x := int64(minXSize); x < minXSize+xsizes; x++ {
		for tok := int64(minTokens); tok <= maxTokens; tok++ {
			res, err := eq.Run(context.Background(), pipeline.Build(runParams(x, tok, archSeed)), engine.Options{})
			if err != nil {
				return nil, err
			}
			runGolden[[2]int64{x, tok}] = golden{res.FinalTimeNs, res.Events}
		}
	}

	// The inline architecture: a didactic model exported through the
	// open model format.
	inlineArch := zoo.Didactic(zoo.DidacticSpec{Tokens: 40, Period: 1200, Seed: 1 + rng.Int63n(1<<20)})
	spec, err := archjson.Export(inlineArch)
	if err != nil {
		return nil, err
	}
	if h.inline, err = archjson.Marshal(spec); err != nil {
		return nil, err
	}
	inlineRes, err := eq.Run(context.Background(), inlineArch, engine.Options{})
	if err != nil {
		return nil, err
	}
	inlineBody, err := json.Marshal(serve.RunRequest{Architecture: h.inline})
	if err != nil {
		return nil, err
	}

	for c := 0; c < httpClients; c++ {
		var ops []httpRequest
		for j := 0; j < httpRotation; j++ {
			switch {
			case j == jobSlot:
				req, err := h.sweepRequest(rng)
				if err != nil {
					return nil, err
				}
				ops = append(ops, req)
			case j%inlineEvery == inlineSlot:
				ops = append(ops, httpRequest{kind: "run_inline", body: inlineBody,
					golden: golden{inlineRes.FinalTimeNs, inlineRes.Events}})
			default:
				x, tok := minXSize+rng.Int63n(xsizes), minTokens+rng.Int63n(maxTokens-minTokens+1)
				p, g := runParams(x, tok, archSeed), runGolden[[2]int64{x, tok}]
				body, err := json.Marshal(serve.RunRequest{Scenario: "pipeline", Params: p})
				if err != nil {
					return nil, err
				}
				ops = append(ops, httpRequest{kind: "run", body: body, golden: g})
			}
		}
		h.ops = append(h.ops, ops)
	}

	h.srv = serve.New(serve.Config{JobWorkers: 1, SweepWorkers: 1, MaxJobs: 64})
	var handler http.Handler = h.srv.Handler()
	if traced {
		handler = handlerSpans{next: handler, rec: &h.rec, prefix: "serve.handler."}
	}
	h.ts = httptest.NewServer(handler)
	return h, nil
}

// sweepRequest builds a small sweep job and its golden points, computed
// in-process through the compilation path the server uses.
func (h *httpMixedInst) sweepRequest(rng *rand.Rand) (httpRequest, error) {
	req := serve.SweepRequest{
		Scenario: "pipeline",
		Axes: []serve.Axis{
			{Name: "xsize", Values: []int64{4, 5}},
			{Name: "seed", Values: []int64{1 + rng.Int63n(1<<20), 1 + rng.Int63n(1<<20)}},
		},
		Params:  map[string]int64{"tokens": 40},
		Options: serve.SweepOptions{Workers: 1, BatchWidth: 2},
	}
	plan, rerr := serve.CompileSweep(req, serve.SweepDefaults{})
	if rerr != nil {
		return httpRequest{}, rerr
	}
	res, err := sweepRun(plan)
	if err != nil {
		return httpRequest{}, err
	}
	points := map[string]golden{}
	for _, pr := range res.Points {
		points[paramsKey(pr.Point.Names, pr.Point.Values)] = golden{pr.Run.FinalTimeNs, pr.Run.Events}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return httpRequest{}, err
	}
	return httpRequest{kind: "sweep", body: body, points: points}, nil
}

func (h *httpMixedInst) rotation() int { return httpRotation }

func (h *httpMixedInst) op(c, n int, t *opTrace) (int, error) {
	req := h.ops[c][n%httpRotation]
	if t != nil && h.rec.Load() == nil {
		h.rec.Store(t.rec) // untraced requests carry no span headers
	}
	if req.kind == "sweep" {
		return 1, h.job(req, t)
	}
	start := time.Now()
	id, hdr := t.hop(req.kind)
	resp, err := send(h.client, http.MethodPost, h.ts.URL+"/v1/run", req.body, hdr)
	if err != nil {
		return 0, err
	}
	var out serve.RunResponse
	err = decodeBody(resp, &out)
	t.record(id, "client."+req.kind, start, time.Now())
	if err != nil {
		return 0, err
	}
	if r := out.Result; r.FinalTimeNs != req.golden.finalTimeNs || r.Events != req.golden.events {
		return 0, fmt.Errorf("%s: final %d events %d, want %d %d", req.kind, r.FinalTimeNs, r.Events, req.golden.finalTimeNs, req.golden.events)
	}
	if t != nil {
		h.wallNs.Add(out.Result.WallNs)
	}
	return 1, nil
}

// job submits a sweep, follows its SSE stream to the terminal state
// event and checks the points it reads back.
func (h *httpMixedInst) job(req httpRequest, t *opTrace) error {
	start := time.Now()
	id, hdr := t.hop("sweep_create")
	resp, err := send(h.client, http.MethodPost, h.ts.URL+"/v1/sweeps", req.body, hdr)
	if err != nil {
		return err
	}
	var job serve.Job
	err = decodeBody(resp, &job)
	t.record(id, "client.sweep_create", start, time.Now())
	if err != nil {
		return err
	}

	evStart := time.Now()
	id, hdr = t.hop("sweep_events")
	resp, err = send(h.client, http.MethodGet, h.ts.URL+"/v1/sweeps/"+job.ID+"/events", nil, hdr)
	if err != nil {
		return err
	}
	state, err := followEvents(resp, func() { t.span("serve.job_queue", "", 0, start, time.Now()) })
	t.record(id, "client.sweep_events", evStart, time.Now())
	if err != nil {
		return err
	}
	if state != "done" {
		return fmt.Errorf("job %s ended %s", job.ID, state)
	}

	// The results read is part of the op but not of the job's latency
	// the layers describe.
	resp, err = send(h.client, http.MethodGet, h.ts.URL+"/v1/sweeps/"+job.ID, nil, nil)
	if err != nil {
		return err
	}
	var res serve.JobResult
	if err := decodeBody(resp, &res); err != nil {
		return err
	}
	return checkPoints(res.Points, req.points)
}

// followEvents reads an SSE job stream until its terminal state event
// and returns that state. first is called when the first event arrives.
func followEvents(resp *http.Response, first func()) (string, error) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var event string
	seen := false
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		if !seen {
			seen = true
			first()
		}
		if event != "state" {
			continue
		}
		var job serve.Job
		if err := json.Unmarshal([]byte(data), &job); err != nil {
			return "", fmt.Errorf("state event: %w", err)
		}
		switch job.State {
		case "done", "failed", "cancelled":
			return job.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("event stream ended before a terminal state")
}

func checkPoints(points []serve.SweepPoint, want map[string]golden) error {
	if len(points) != len(want) {
		return fmt.Errorf("%d points, want %d", len(points), len(want))
	}
	for _, p := range points {
		if p.Error != "" || p.Result == nil {
			return fmt.Errorf("point %v failed: %s", p.Params, p.Error)
		}
		g, ok := want[mapKey(p.Params)]
		if !ok {
			return fmt.Errorf("unexpected point %v", p.Params)
		}
		if p.Result.FinalTimeNs != g.finalTimeNs || p.Result.Events != g.events {
			return fmt.Errorf("point %v: final %d events %d, want %d %d", p.Params, p.Result.FinalTimeNs, p.Result.Events, g.finalTimeNs, g.events)
		}
	}
	return nil
}

func (h *httpMixedInst) layers(rec *recorder) (map[string]float64, error) {
	spans := rec.snapshot()
	lt := selfTimes(spans)
	out := map[string]float64{}
	for _, kind := range []string{"run", "run_inline", "sweep_create", "sweep_events"} {
		l := lt["serve.handler."+kind]
		if l.n == 0 {
			return nil, fmt.Errorf("traced phase recorded no %s request", kind)
		}
		out["serve.handler_ms."+kind] = ms(l.meanWall())
	}
	var transport time.Duration
	var n int
	for _, kind := range []string{"run", "run_inline", "sweep_create", "sweep_events"} {
		l := lt["client."+kind]
		transport += l.self
		n += l.n
	}
	out["serve.transport_ms"] = ms(transport) / float64(n)
	runHandler := lt["serve.handler.run"].wall + lt["serve.handler.run_inline"].wall
	out["serve.engine_share"] = float64(h.wallNs.Load()) / float64(runHandler.Nanoseconds())
	out["serve.job_queue_ms"] = ms(lt["serve.job_queue"].meanWall())

	hits, err := scrapeMetric(h.client, h.ts.URL+"/metrics", "dyncomp_serve_derive_cache_hits_total")
	if err != nil {
		return nil, err
	}
	misses, err := scrapeMetric(h.client, h.ts.URL+"/metrics", "dyncomp_serve_derive_cache_misses_total")
	if err != nil {
		return nil, err
	}
	out["serve.cache_hit_ratio"] = hits / (hits + misses)

	start := time.Now()
	for r := 0; r < layerReps; r++ {
		if _, err := archjson.Decode(h.inline); err != nil {
			return nil, err
		}
	}
	out["archjson.decode_us"] = us(time.Since(start)) / layerReps
	return out, nil
}

func (h *httpMixedInst) close() {
	h.ts.Close()
	h.srv.Close()
	h.client.CloseIdleConnections()
}
