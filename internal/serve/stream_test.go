package serve

// Stalled-consumer tests: a client that connects to a streaming
// endpoint and never reads must not pin the handler goroutine forever —
// the per-write deadline tears the connection down and the handler
// returns.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stalledStream opens a raw TCP connection to the server, sends a GET
// for path, and never reads the response — the rudest consumer there
// is. It returns a cleanup that closes the connection.
func stalledStream(t *testing.T, tsURL, path string) func() {
	t.Helper()
	addr := strings.TrimPrefix(tsURL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nAccept: */*\r\n\r\n", path, addr)
	return func() { conn.Close() }
}

// waitHandlerDone fails the test unless done closes within the window.
func waitHandlerDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("%s handler still pinned by a stalled consumer after 15s", what)
	}
}

// streamServer builds a server with a tight stream write deadline and a
// handler wrapper that closes done when a request to markerPath
// finishes.
func streamServer(t *testing.T, markerPath string) (*Server, *httptest.Server, <-chan struct{}) {
	t.Helper()
	c := New(Config{StreamWriteTimeout: 100 * time.Millisecond})
	done := make(chan struct{})
	var once atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Handler().ServeHTTP(w, r)
		if strings.Contains(r.URL.Path, markerPath) && once.CompareAndSwap(false, true) {
			close(done)
		}
	})
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts, done
}

// A never-reading NDJSON /results consumer of a job with megabytes of
// buffered points is disconnected by the write deadline.
func TestResultsStreamWriteDeadline(t *testing.T) {
	c, ts, done := streamServer(t, "/results")

	// Fabricate a running job with ~8MB of arrived points: replay blocks
	// on the socket once the kernel buffers fill.
	j := &SweepJob{Lifecycle: Lifecycle{ID: "job-900001"}}
	j.Start(func() {}, time.Now())
	padding := strings.Repeat("x", 4096)
	for i := 0; i < 2000; i++ {
		j.arrived = append(j.arrived, ChunkPoint{
			Index:      i,
			SweepPoint: SweepPoint{Error: padding},
		})
	}
	c.jobs.Restore(j)

	stop := stalledStream(t, ts.URL, "/v1/sweeps/job-900001/results")
	defer stop()
	waitHandlerDone(t, done, "NDJSON results")
}

// A never-reading SSE /events consumer of a chatty job is disconnected
// by the write deadline instead of pinning the emitter.
func TestEventsStreamWriteDeadline(t *testing.T) {
	c, ts, done := streamServer(t, "/events")

	// A snapshot bigger than any socket buffer: the initial state event
	// cannot complete against a non-reading consumer, so the write
	// deadline is the only way out.
	j := &SweepJob{Lifecycle: Lifecycle{ID: "job-900002", Total: 1,
		Scenario: strings.Repeat("x", 32<<20)}}
	j.Start(func() {}, time.Now())
	c.jobs.Restore(j)

	stop := stalledStream(t, ts.URL, "/v1/sweeps/job-900002/events")
	defer stop()
	waitHandlerDone(t, done, "SSE events")
}

// A job that settles long after its last point batch still delivers its
// trailer: the write deadline is refreshed before every write, not only
// when points arrive, so the idle gap (here three write timeouts, then a
// cancel) cannot expire the trailer's write.
func TestResultsTrailerAfterIdleGap(t *testing.T) {
	c, ts, _ := streamServer(t, "/results")

	j := &SweepJob{Lifecycle: Lifecycle{ID: "job-900003", Total: 1}}
	j.Start(func() {}, time.Now())
	j.arrived = append(j.arrived, ChunkPoint{Index: 0})
	c.jobs.Restore(j)

	resp, err := http.Get(ts.URL + "/v1/sweeps/job-900003/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var point ResultLine
	if err := dec.Decode(&point); err != nil || point.Point == nil {
		t.Fatalf("first line %+v, err %v; want the point", point, err)
	}

	time.Sleep(300 * time.Millisecond) // idle well past the 100ms write timeout
	j.Settle(JobCancelled, context.Canceled.Error(), time.Now())

	var trailer ResultLine
	if err := dec.Decode(&trailer); err != nil {
		t.Fatalf("trailer lost after an idle gap: %v", err)
	}
	if trailer.State != "cancelled" || trailer.Stats == nil {
		t.Fatalf("trailer %+v, want state cancelled with stats", trailer)
	}
}
