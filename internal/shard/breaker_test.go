package shard

// Circuit-breaker lifecycle tests: a benched worker comes back through
// the open → half-open → closed probe path instead of waiting for a
// re-registration, failed probes keep it benched under growing backoff,
// per-worker shedding answers re-steer without benching, and a failure
// threshold above one tolerates sporadic faults.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dyncomp/internal/serve"
)

// A worker benched by a transport failure recovers through the probe
// loop: the first probe fails (half-open → open, backoff grows), the
// second succeeds, and the fleet returns to all-closed with the
// transitions counted.
func TestBreakerProbeRecoversWorker(t *testing.T) {
	workers := newFleet(t, 2)
	tr := newFaultTransport(func(attempt int, workerURL string, req serve.ChunkRequest) error {
		if attempt == 1 {
			return errors.New("injected: connection dropped")
		}
		return nil
	})
	var probes atomic.Int64
	c, ts := newCoord(t, Config{
		Workers: workers, ChunkPoints: 2, Transport: tr,
		ProbeBase: 5 * time.Millisecond,
		Prober: ProberFunc(func(ctx context.Context, url string) error {
			if probes.Add(1) == 1 {
				return errors.New("injected: still down")
			}
			return nil
		}),
	})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))

	deadline := time.Now().Add(10 * time.Second)
	for c.ring.alive() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("benched worker never recovered; workers: %+v", c.ring.workers())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := probes.Load(); n < 2 {
		t.Fatalf("%d probes, want at least 2 (one failed, one succeeded)", n)
	}
	if n := c.Metrics.Count(metricBreakerOpened, ""); n != 1 {
		t.Fatalf("breakerOpened %d, want 1", n)
	}
	if n := c.Metrics.Count(metricBreakerClosed, ""); n != 1 {
		t.Fatalf("breakerClosed %d, want 1", n)
	}
	for _, ws := range c.ring.workers() {
		if ws.Breaker != "closed" || ws.Down {
			t.Fatalf("worker %s state %q down=%v after recovery", ws.URL, ws.Breaker, ws.Down)
		}
	}
}

// While every probe fails, the breaker stays open and the worker stays
// out of rotation — no premature un-benching.
func TestBreakerStaysOpenWhileProbesFail(t *testing.T) {
	workers := newFleet(t, 2)
	tr := newFaultTransport(func(attempt int, workerURL string, req serve.ChunkRequest) error {
		if attempt == 1 {
			return errors.New("injected: connection dropped")
		}
		return nil
	})
	var probes atomic.Int64
	c, ts := newCoord(t, Config{
		Workers: workers, ChunkPoints: 2, Transport: tr,
		ProbeBase: 2 * time.Millisecond, ProbeMax: 10 * time.Millisecond,
		Prober: ProberFunc(func(ctx context.Context, url string) error {
			probes.Add(1)
			return errors.New("injected: still down")
		}),
	})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))

	deadline := time.Now().Add(10 * time.Second)
	for probes.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d probes fired", probes.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if alive := c.ring.alive(); alive != 1 {
		t.Fatalf("%d workers alive, want 1 (failing probes must not revive)", alive)
	}
}

// A 429 answer is the worker shedding load, not a verdict on the
// request: the chunk re-steers to another worker and the shedding
// worker is neither benched nor the chunk failed.
func TestWorkerShedReSteersWithoutBenching(t *testing.T) {
	workers := newFleet(t, 3)
	tr := newFaultTransport(func(attempt int, workerURL string, req serve.ChunkRequest) error {
		if attempt <= 2 {
			return &WorkerError{Status: http.StatusTooManyRequests,
				Code: "overloaded", Msg: "injected: shedding"}
		}
		return nil
	})
	c, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2, Transport: tr})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))
	tr.deliveredOnce(t, res.Total)
	if alive := c.ring.alive(); alive != 3 {
		t.Fatalf("%d workers alive, want 3 (a shed answer must not bench)", alive)
	}
	if n := c.Metrics.Count(metricBreakerOpened, ""); n != 0 {
		t.Fatalf("breakerOpened %d, want 0", n)
	}
}

// With a threshold above one, a single sporadic transport failure does
// not open the breaker — the chunk re-steers, the worker stays in
// rotation.
func TestBreakerThresholdToleratesSporadicFailure(t *testing.T) {
	workers := newFleet(t, 3)
	tr := newFaultTransport(func(attempt int, workerURL string, req serve.ChunkRequest) error {
		if attempt == 1 {
			return errors.New("injected: one-off drop")
		}
		return nil
	})
	c, ts := newCoord(t, Config{
		Workers: workers, ChunkPoints: 2, Transport: tr,
		BreakerThreshold: 3,
	})

	job := submitSweep(t, ts.URL, faultReq)
	res := waitTerminal(t, ts.URL, job.ID)
	assertBitIdentical(t, res, localSweep(t, faultReq))
	if alive := c.ring.alive(); alive != 3 {
		t.Fatalf("%d workers alive, want 3 (one failure is below the threshold)", alive)
	}
	if n := c.Metrics.Count(metricBreakerOpened, ""); n != 0 {
		t.Fatalf("breakerOpened %d, want 0", n)
	}
}

// The coordinator's observability endpoints: /metrics exposes the
// resilience series, /readyz keys on having a worker in rotation.
func TestCoordMetricsAndReadyz(t *testing.T) {
	workers := newFleet(t, 2)
	_, ts := newCoord(t, Config{Workers: workers, ChunkPoints: 2})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz answered %d with a live fleet", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, series := range []string{
		"dyncomp_coord_workers 2",
		"dyncomp_coord_workers_alive 2",
		"dyncomp_coord_breaker_state{worker=",
		"dyncomp_coord_breaker_opened_total 0",
		"dyncomp_coord_breaker_closed_total 0",
		"dyncomp_coord_chunk_retries_total 0",
		"dyncomp_coord_jobs 0",
		"dyncomp_coord_jobs_evicted_total 0",
		"dyncomp_coord_store_compactions_total 0",
		"dyncomp_coord_panics_total 0",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics missing %q:\n%s", series, body)
		}
	}

	// An empty fleet cannot make progress: not ready, but still alive.
	_, tsEmpty := newCoord(t, Config{})
	resp, err = http.Get(tsEmpty.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz answered %d with no workers, want 503", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != "unavailable" {
		t.Fatalf("readyz code %q, want unavailable", code)
	}
	resp, err = http.Get(tsEmpty.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz answered %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}
