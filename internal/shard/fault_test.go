package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyncomp/internal/serve"
)

// faultTransport wraps the real HTTP transport with an injection hook:
// the hook sees every attempt (attempt ordinal across the whole
// transport, worker URL, chunk request) before it goes out and may
// synthesize a failure — a dropped connection, a 5xx envelope, a delay
// — without running a broken fleet. A nil hook result lets the attempt
// through to the real worker. Injection keys on the attempt ordinal,
// not the worker URL: httptest ports are random, so which worker the
// ring picks for a shape differs run to run, but "the first dispatch
// fails" is deterministic.
type faultTransport struct {
	inner Transport
	hook  func(attempt int, workerURL string, req serve.ChunkRequest) error

	mu       sync.Mutex
	attempts int
	// delivered records every grid index the transport returned results
	// for, counting duplicates — the fabric must evaluate each point
	// exactly once per job.
	delivered map[int]int
}

func newFaultTransport(hook func(attempt int, workerURL string, req serve.ChunkRequest) error) *faultTransport {
	return &faultTransport{
		inner:     &httpTransport{client: &http.Client{}},
		hook:      hook,
		delivered: map[int]int{},
	}
}

func (t *faultTransport) RunChunk(ctx context.Context, workerURL string, req serve.ChunkRequest) (*serve.ChunkResponse, error) {
	t.mu.Lock()
	t.attempts++
	n := t.attempts
	t.mu.Unlock()
	if t.hook != nil {
		if err := t.hook(n, workerURL, req); err != nil {
			return nil, err
		}
	}
	resp, err := t.inner.RunChunk(ctx, workerURL, req)
	if err == nil {
		t.mu.Lock()
		for _, cp := range resp.Points {
			t.delivered[cp.Index]++
		}
		t.mu.Unlock()
	}
	return resp, err
}

func (t *faultTransport) attemptCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts
}

// deliveredOnce asserts every index in [0, total) was delivered exactly
// once by the transport — no duplicated and no lost points.
func (t *faultTransport) deliveredOnce(tt *testing.T, total int) {
	tt.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < total; i++ {
		if n := t.delivered[i]; n != 1 {
			tt.Fatalf("index %d delivered %d times", i, n)
		}
	}
	if len(t.delivered) != total {
		tt.Fatalf("%d distinct indices delivered, want %d", len(t.delivered), total)
	}
}

// faultReq is the grid every fault test sweeps: 12 points in 2 shape
// cohorts; with ChunkPoints 2 that is 6 width-aligned chunks — enough
// dispatches for failures to land mid-job. The adaptive engine runs
// every chunk as batched lanes.
var faultReq = serve.SweepRequest{
	Engine:   "adaptive",
	Scenario: "didactic",
	Axes: []serve.Axis{
		{Name: "stages", Values: []int64{1, 2}},
		{Name: "seed", Values: []int64{3, 5, 7, 9, 11, 13}},
	},
	Params:  map[string]int64{"tokens": 30},
	Options: serve.SweepOptions{BatchWidth: 2},
}

// Dropped connections re-hash the chunk to a surviving worker: the job
// completes bit-identical to the single-process sweep with every point
// evaluated exactly once, even though the first two dispatch attempts
// never reach a worker and bench their targets.
func TestFaultTransportDropRetries(t *testing.T) {
	workers := newFleet(t, 3)
	tr := newFaultTransport(func(attempt int, workerURL string, req serve.ChunkRequest) error {
		if attempt <= 2 {
			return errors.New("injected: connection dropped")
		}
		return nil
	})
	_, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2, Transport: tr})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))
	tr.deliveredOnce(t, res.Total)
}

// A worker answering 500 stays in rotation (it is alive, just
// unhealthy) while the chunk retries elsewhere; the job still completes
// with no duplicated or lost points.
func TestFaultWorker500Rehash(t *testing.T) {
	workers := newFleet(t, 3)
	tr := newFaultTransport(func(attempt int, workerURL string, req serve.ChunkRequest) error {
		if attempt <= 2 {
			return &WorkerError{Status: 500, Code: "internal", Msg: "injected"}
		}
		return nil
	})
	c, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2, Transport: tr})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))
	tr.deliveredOnce(t, res.Total)
	if alive := c.ring.alive(); alive != 3 {
		t.Fatalf("%d workers alive after 500s, want 3 (a 5xx must not bench the worker)", alive)
	}
}

// A delayed attempt hits the per-attempt chunk timeout: the slow worker
// is benched as transport-dead, the chunk re-hashes to a survivor, and
// the job completes.
func TestFaultDelayTimesOutAndRehashes(t *testing.T) {
	workers := newFleet(t, 3)
	tr := newFaultTransport(func(attempt int, workerURL string, req serve.ChunkRequest) error {
		if attempt == 1 {
			time.Sleep(300 * time.Millisecond) // >> ChunkTimeout
		}
		return nil
	})
	c, ts := newCoord(t, Config{
		Workers: workers, ChunkPoints: 2, Transport: tr,
		ChunkTimeout: 50 * time.Millisecond,
		// Pin benched workers open: the real prober would revive the
		// worker (it is alive, only the injected attempt was slow) and
		// race the alive() assertion below.
		Prober: ProberFunc(func(context.Context, string) error {
			return errors.New("probing disabled")
		}),
	})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))
	tr.deliveredOnce(t, res.Total)
	if alive := c.ring.alive(); alive != 2 {
		t.Fatalf("%d workers alive, want 2 (the timed-out worker benched)", alive)
	}
}

// killableFleet starts n real serving-layer workers behind a middleware
// that elects a victim — the first worker fleet-wide to receive a chunk
// — and tears every later chunk request to it at the TCP level: the
// handler hijacks the connection and closes it without answering,
// exactly what the coordinator sees when a worker process dies under
// load. The victim serves its first chunk normally, so the kill lands
// mid-job with results already merged from the dead worker.
func killableFleet(t *testing.T, n int) (urls []string, victimServed *atomic.Int64) {
	t.Helper()
	var victim atomic.Int64
	victim.Store(-1)
	victimServed = &atomic.Int64{}
	urls = make([]string, n)
	for i := range urls {
		s := serve.New(serve.Config{})
		idx := int64(i)
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/chunks") {
				if victim.CompareAndSwap(-1, idx) {
					victimServed.Add(1) // the victim's first chunk: serve it
				} else if victim.Load() == idx {
					victimServed.Add(1)
					conn, _, err := http.NewResponseController(w).Hijack()
					if err == nil {
						conn.Close()
					}
					return
				}
			}
			s.Handler().ServeHTTP(w, r)
		})
		ts := httptest.NewServer(h)
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		urls[i] = ts.URL
	}
	return urls, victimServed
}

// Killing a worker mid-job tears its in-flight chunks; the coordinator
// benches it, re-hashes the torn chunks to survivors, and the job
// completes bit-identical with every point evaluated exactly once —
// including the chunk the dead worker served before it died.
func TestFaultWorkerKilledMidChunk(t *testing.T) {
	workers, victimServed := killableFleet(t, 3)
	tr := newFaultTransport(nil)
	c, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2, Transport: tr,
		// The victim only tears /v1/chunks; its /readyz still answers, so
		// the real prober would un-bench it and race the alive() check.
		Prober: ProberFunc(func(context.Context, string) error {
			return errors.New("probing disabled")
		}),
	})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))
	tr.deliveredOnce(t, res.Total)
	// Each shape cohort spans 3 chunks and all of a cohort routes to one
	// worker, so the victim always sees at least a second request — the
	// one that tears.
	if n := victimServed.Load(); n < 2 {
		t.Fatalf("victim saw %d chunk requests, want at least 2 (serve one, tear one)", n)
	}
	if alive := c.ring.alive(); alive != 2 {
		t.Fatalf("%d workers alive, want 2 (the killed worker benched)", alive)
	}
}

// A degraded single-worker fleet still completes every job — the
// distributed mirror of the batch engine's scalar fallback: less
// parallelism, identical results.
func TestFaultSingleWorkerFleetCompletes(t *testing.T) {
	workers := newFleet(t, 1)
	tr := newFaultTransport(nil)
	_, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2, Transport: tr})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))
	tr.deliveredOnce(t, res.Total)
}

// With every worker unreachable the job still settles: done reaches
// total and each point carries the fabric error — no hung jobs, no
// holes, mirroring the sweep engine's per-point failure semantics.
func TestFaultFleetExhaustedFailsPoints(t *testing.T) {
	workers := newFleet(t, 2)
	tr := newFaultTransport(func(attempt int, workerURL string, req serve.ChunkRequest) error {
		return errors.New("injected: fleet unreachable")
	})
	_, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2, Transport: tr})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	if res.State != "done" {
		t.Fatalf("job settled as %q, want done with per-point errors", res.State)
	}
	if res.Done != res.Total {
		t.Fatalf("done %d != total %d", res.Done, res.Total)
	}
	if res.Stats == nil || res.Stats.Failed != res.Total {
		t.Fatalf("stats %+v, want all %d points failed", res.Stats, res.Total)
	}
	for i, p := range res.Points {
		if !strings.Contains(p.Error, "chunk undeliverable") {
			t.Fatalf("point %d error %q does not carry the fabric error", i, p.Error)
		}
	}
}

// A permanent (4xx) worker answer settles the chunk immediately — every
// worker validates identically, so retrying elsewhere is pointless.
func TestFaultPermanentErrorDoesNotRetry(t *testing.T) {
	workers := newFleet(t, 3)
	tr := newFaultTransport(func(attempt int, workerURL string, req serve.ChunkRequest) error {
		return &WorkerError{Status: 400, Code: "bad_request", Msg: "injected"}
	})
	_, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2, Transport: tr})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	if res.Stats == nil || res.Stats.Failed != res.Total {
		t.Fatalf("stats %+v, want all %d points failed", res.Stats, res.Total)
	}
	// 6 chunks, one attempt each: a permanent answer must not burn the
	// retry budget.
	if n := tr.attemptCount(); n != 6 {
		t.Fatalf("%d attempts for 6 chunks, want exactly one each", n)
	}
}

// swapTransport delegates to a replaceable inner transport, so a test
// can run one phase against the real fleet and the next against a
// fault, without mutating the coordinator's config concurrently.
type swapTransport struct {
	mu    sync.Mutex
	inner Transport
}

func (t *swapTransport) set(inner Transport) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inner = inner
}

func (t *swapTransport) RunChunk(ctx context.Context, workerURL string, req serve.ChunkRequest) (*serve.ChunkResponse, error) {
	t.mu.Lock()
	inner := t.inner
	t.mu.Unlock()
	return inner.RunChunk(ctx, workerURL, req)
}

// gateTransport lets a fixed number of chunks through, then blocks
// every further dispatch until its context dies — the harness for
// killing a coordinator mid-job with a known amount of durable state.
type gateTransport struct {
	inner   Transport
	allowed atomic.Int64
	limit   int64
}

func (t *gateTransport) RunChunk(ctx context.Context, workerURL string, req serve.ChunkRequest) (*serve.ChunkResponse, error) {
	if t.allowed.Add(1) > t.limit {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return t.inner.RunChunk(ctx, workerURL, req)
}

// Killing the coordinator mid-job and restarting it over the same store
// resumes the job from the last persisted chunk: the resumed run
// re-dispatches only the missing chunks (persisted results replay, they
// are not re-evaluated), reaches done == total, and the merged result
// is bit-identical to the single-process sweep. A job that finished
// before the restart stays readable with its full results.
func TestCoordinatorRestartResumesFromStore(t *testing.T) {
	workers := newFleet(t, 3)
	storePath := t.TempDir() + "/jobs.ndjson"

	// Phase 0: a job that completes before the kill.
	sw := &swapTransport{inner: &httpTransport{client: &http.Client{}}}
	c1, ts1 := newCoord(t, Config{Workers: workers, ChunkPoints: 2, StorePath: storePath, Transport: sw})
	doneJob := submitSweep(t, ts1.URL, faultReq)
	waitTerminal(t, ts1.URL, doneJob.ID)

	// Phase 1: a second job whose dispatch freezes after 2 chunks.
	sw.set(&gateTransport{inner: &httpTransport{client: &http.Client{}}, limit: 2})
	frozen := submitSweep(t, ts1.URL, faultReq)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if res := getResult(t, ts1.URL, frozen.ID); res.Done >= 4 {
			break // 2 chunks × 2 points merged and persisted
		}
		if time.Now().After(deadline) {
			t.Fatal("frozen job never persisted its first chunks")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Kill the coordinator: blocked dispatches abort, the job stays
	// unsettled in the store.
	ts1.Close()
	c1.Close()

	// Phase 2: restart over the same store with a healthy transport.
	tr2 := newFaultTransport(nil)
	c2, err := New(Config{Workers: workers, ChunkPoints: 2, StorePath: storePath, Transport: tr2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		c2.Close()
	})

	// The finished job survived the restart with full results.
	assertBitIdentical(t, getResult(t, ts2.URL, doneJob.ID), localSweep(t, faultReq))

	// The frozen job resumed and completed.
	res := waitTerminal(t, ts2.URL, frozen.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))
	uniqueIndexParams(t, res.Points)

	// Resume must not re-evaluate persisted chunks: the restarted
	// transport saw only the 8 unpersisted points, each exactly once.
	tr2.mu.Lock()
	redispatched := len(tr2.delivered)
	dup := false
	for _, n := range tr2.delivered {
		if n != 1 {
			dup = true
		}
	}
	tr2.mu.Unlock()
	if redispatched != 8 || dup {
		t.Fatalf("restart re-dispatched %d points (dup=%v), want exactly the 8 unpersisted ones", redispatched, dup)
	}
}

// Cancelling a job persists the terminal state: a restarted coordinator
// reports it cancelled instead of resurrecting the work.
func TestCancelledJobStaysCancelledAfterRestart(t *testing.T) {
	workers := newFleet(t, 2)
	storePath := t.TempDir() + "/jobs.ndjson"

	gate := &gateTransport{inner: &httpTransport{client: &http.Client{}}, limit: 0}
	c1, ts1 := newCoord(t, Config{Workers: workers, ChunkPoints: 2, StorePath: storePath, Transport: gate})
	job := submitSweep(t, ts1.URL, faultReq)

	cancelJob(t, ts1.URL, job.ID)
	res := waitTerminal(t, ts1.URL, job.ID)
	if res.State != "cancelled" {
		t.Fatalf("state %q, want cancelled", res.State)
	}
	ts1.Close()
	c1.Close()

	c2, err := New(Config{Workers: workers, ChunkPoints: 2, StorePath: storePath,
		Transport: newFaultTransport(nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	j, ok := c2.jobs.Get(job.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", job.ID)
	}
	if snap := j.Snapshot(); snap.State != "cancelled" {
		t.Fatalf("restarted state %q, want cancelled", snap.State)
	}
}

// attemptTransport fails the first dispatch attempt and answers every
// later one itself. When the second attempt starts it records whether
// the first attempt's context had already ended.
type attemptTransport struct {
	recordingTransport
	mu        sync.Mutex
	attempts  int
	first     context.Context
	firstDone error // the first attempt's ctx.Err() as the second began
}

func (t *attemptTransport) RunChunk(ctx context.Context, workerURL string, req serve.ChunkRequest) (*serve.ChunkResponse, error) {
	t.mu.Lock()
	t.attempts++
	switch t.attempts {
	case 1:
		t.first = ctx
		t.mu.Unlock()
		return nil, errors.New("connection reset")
	case 2:
		t.firstDone = t.first.Err()
	}
	t.mu.Unlock()
	return t.recordingTransport.RunChunk(ctx, workerURL, req)
}

// Each dispatch attempt's timeout context ends with the attempt: a
// chunk that retries holds no live context or timer of its failed
// attempts while it waits for the next.
func TestAttemptContextEndsWithAttempt(t *testing.T) {
	tr := &attemptTransport{}
	_, ts := newCoord(t, Config{
		Workers:      []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		ChunkPoints:  16,
		Dispatch:     1,
		ChunkTimeout: time.Hour,
		Transport:    tr,
		Prober: ProberFunc(func(context.Context, string) error {
			return errors.New("probing disabled")
		}),
	})
	res := waitTerminal(t, ts.URL, submitSweep(t, ts.URL, faultReq).ID)
	if res.State != "done" {
		t.Fatalf("job settled as %q (%s)", res.State, res.Error)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.attempts < 2 {
		t.Fatalf("%d dispatch attempts, want a retry", tr.attempts)
	}
	if tr.firstDone == nil {
		t.Fatal("the failed first attempt's context was still live when the retry started")
	}
}
