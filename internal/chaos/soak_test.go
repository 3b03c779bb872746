package chaos

// The chaos soak wall: mixed traffic against a fleet whose workers flap
// (torn connections, injected 500s) while breakers open, probe and
// close, followed by a coordinator kill-and-restart over the same
// store; and an overload scenario hammering the serving layer's
// admission control. The invariants:
//
//   - every non-2xx answer anywhere is the structured envelope with a
//     stable code — never a torn or unstructured 500;
//   - every submitted job settles, and every settled result survives
//     the coordinator restart byte-identical;
//   - the fleet recovers to all-closed breakers once the faults stop.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyncomp/internal/serve"
	"dyncomp/internal/shard"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

var soakReq = serve.SweepRequest{
	Engine:   "adaptive",
	Scenario: "pipeline",
	Axes: []serve.Axis{
		{Name: "tokens", Values: []int64{20, 40}},
		{Name: "period", Values: []int64{500, 800}},
	},
	Options: serve.SweepOptions{BatchWidth: 2},
}

// workersAllClosed polls GET /v1/workers until every breaker reports
// closed.
func workersAllClosed(t *testing.T, coordURL string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(coordURL + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Workers []shard.WorkerStatus `json:"workers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		closed := 0
		for _, ws := range out.Workers {
			if ws.Breaker == "closed" {
				closed++
			}
		}
		if closed == len(out.Workers) && closed > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered to all-closed breakers: %+v", out.Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// jobSnapshot fetches one settled job and re-marshals its durable
// fields — state, counts and the full points array — as the identity
// token for the restart comparison. Wall-clock metadata (started,
// finished, wall_ns) is deliberately not persisted by the store and is
// excluded.
func jobSnapshot(t *testing.T, coordURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s answered %d", id, resp.StatusCode)
	}
	var full map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	durable := map[string]json.RawMessage{}
	for _, k := range []string{"id", "state", "engine", "scenario", "done", "total"} {
		durable[k] = full[k]
	}
	// Successful point results must survive byte-identical. Failed points
	// must stay failed, but fabric-error text is not durable — the store
	// persists results, not in-flight delivery errors — so collapse the
	// error string to a marker.
	var points []map[string]json.RawMessage
	if err := json.Unmarshal(full["points"], &points); err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if e, ok := p["error"]; ok && len(e) > 2 {
			p["error"] = json.RawMessage(`"<failed>"`)
		}
	}
	pts, err := json.Marshal(points)
	if err != nil {
		t.Fatal(err)
	}
	durable["points"] = pts
	raw, err := json.Marshal(durable)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestChaosSoak drives concurrent sweep traffic through a coordinator
// whose workers flap between healthy, torn-connection and denial modes,
// then lets the fleet heal, kills the coordinator and restarts it over
// the same store.
func TestChaosSoak(t *testing.T) {
	// Three real workers behind flap-able fault wrappers that break only
	// the chunk path — health and readiness stay honest, exactly like a
	// worker whose evaluation path wedged but whose process lives.
	var flakies []*Flaky
	var workerURLs []string
	for i := 0; i < 3; i++ {
		s := serve.New(serve.Config{})
		fl := NewFlaky(s.Handler(), "/v1/chunks")
		ws := httptest.NewServer(fl)
		t.Cleanup(func() {
			ws.Close()
			s.Close()
		})
		flakies = append(flakies, fl)
		workerURLs = append(workerURLs, ws.URL)
	}

	storePath := t.TempDir() + "/jobs.ndjson"
	coordCfg := shard.Config{
		Workers: workerURLs, ChunkPoints: 2, StorePath: storePath,
		Retries:   5,
		ProbeBase: 20 * time.Millisecond, ProbeTimeout: time.Second,
		RetryBase: 5 * time.Millisecond, RetryMax: 50 * time.Millisecond,
	}
	c1, err := shard.New(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(c1.Handler())

	// Flapper: cycle each worker through tear → deny → heal while the
	// traffic runs.
	flapStop := make(chan struct{})
	var flapWG sync.WaitGroup
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		modes := []Mode{Tear, Pass, Deny, Pass}
		for i := 0; ; i++ {
			select {
			case <-flapStop:
				for _, fl := range flakies {
					fl.Set(Pass)
				}
				return
			case <-time.After(25 * time.Millisecond):
			}
			flakies[i%len(flakies)].Set(modes[i%len(modes)])
		}
	}()

	// Mixed traffic: concurrent submitters, each polling its jobs to
	// terminal, every response checked for the envelope invariant.
	var (
		mu         sync.Mutex
		violations []string
		jobIDs     []string
		checked    atomic.Int64
	)
	check := func(resp *http.Response) string {
		checked.Add(1)
		code, err := CheckEnvelope(resp)
		if err != nil {
			mu.Lock()
			violations = append(violations, err.Error())
			mu.Unlock()
		}
		return code
	}
	var traffic sync.WaitGroup
	for g := 0; g < 4; g++ {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			for n := 0; n < 3; n++ {
				resp := postJSON(t, ts1.URL+"/v1/sweeps", soakReq)
				if resp.StatusCode != http.StatusAccepted {
					check(resp)
					continue
				}
				var j serve.Job
				if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
					t.Error(err)
					resp.Body.Close()
					continue
				}
				resp.Body.Close()
				mu.Lock()
				jobIDs = append(jobIDs, j.ID)
				mu.Unlock()
				deadline := time.Now().Add(60 * time.Second)
				for {
					r, err := http.Get(ts1.URL + "/v1/sweeps/" + j.ID)
					if err != nil {
						t.Error(err)
						return
					}
					var jr serve.JobResult
					raw, _ := io.ReadAll(r.Body)
					r.Body.Close()
					if err := json.Unmarshal(raw, &jr); err != nil {
						t.Errorf("job poll: %v (%q)", err, raw)
						return
					}
					if jr.State == "done" || jr.State == "failed" || jr.State == "cancelled" {
						if jr.Done != jr.Total {
							t.Errorf("job %s settled %q with done %d != total %d",
								j.ID, jr.State, jr.Done, jr.Total)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("job %s never settled under chaos", j.ID)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}
	traffic.Wait()
	close(flapStop)
	flapWG.Wait()

	if len(violations) > 0 {
		t.Fatalf("%d unstructured failures under chaos, first: %s",
			len(violations), violations[0])
	}
	if len(jobIDs) == 0 {
		t.Fatal("no job survived submission under chaos")
	}

	// Faults off: the fleet must heal to all-closed breakers via the
	// real /readyz probe path.
	workersAllClosed(t, ts1.URL)

	// Snapshot every settled job, then kill the coordinator.
	before := map[string][]byte{}
	for _, id := range jobIDs {
		before[id] = jobSnapshot(t, ts1.URL, id)
	}
	ts1.Close()
	c1.Close()

	// Restart over the same store: every settled result replays
	// byte-identical.
	c2, err := shard.New(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		c2.Close()
	})
	for _, id := range jobIDs {
		if got := jobSnapshot(t, ts2.URL, id); !bytes.Equal(got, before[id]) {
			t.Fatalf("job %s changed across restart:\nbefore: %s\nafter:  %s",
				id, before[id], got)
		}
	}

	// The NDJSON replay of a finished job ends with its terminal
	// trailer.
	resp, err := http.Get(ts2.URL + "/v1/sweeps/" + jobIDs[0] + "/results")
	if err != nil {
		t.Fatal(err)
	}
	lines, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimSpace(string(lines))
	last := trimmed[strings.LastIndexByte(trimmed, '\n')+1:]
	if !strings.Contains(last, `"state"`) {
		t.Fatalf("results replay does not end with the terminal trailer: %q", last)
	}
}

// TestChaosOverloadAdmission hammers a small serving instance from many
// clients, some unauthenticated, at quotas and in-flight limits far
// below the offered load: every rejection must be one of the stable
// admission codes, and the counters must surface on /metrics.
func TestChaosOverloadAdmission(t *testing.T) {
	s := serve.New(serve.Config{
		AuthTokens:  map[string]string{"tok": "alice"},
		QuotaPoints: 40, QuotaWindow: time.Minute,
		MaxInFlight: 4,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	allowed := map[string]bool{
		"unauthorized": true, "quota_exceeded": true,
		"overloaded": true, "queue_full": true,
	}
	var (
		mu         sync.Mutex
		violations []string
		sawCode    = map[string]int{}
	)
	runBody := []byte(`{"scenario":"pipeline","params":{"tokens":20}}`)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		authed := g%4 != 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run",
					bytes.NewReader(runBody))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if authed {
					req.Header.Set("Authorization", "Bearer tok")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				code, cerr := CheckEnvelope(resp)
				mu.Lock()
				if cerr != nil {
					violations = append(violations, cerr.Error())
				} else if code != "" {
					sawCode[code]++
					if !allowed[code] {
						violations = append(violations,
							fmt.Sprintf("unexpected rejection code %q", code))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(violations) > 0 {
		t.Fatalf("%d admission violations, first: %s", len(violations), violations[0])
	}
	if sawCode["unauthorized"] == 0 {
		t.Fatal("no unauthorized rejection despite unauthenticated clients")
	}
	if sawCode["quota_exceeded"] == 0 {
		t.Fatal("no quota rejection despite offered load far above the point budget")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, series := range []string{
		`dyncomp_serve_rejections_total{reason="unauthorized"}`,
		`dyncomp_serve_rejections_total{reason="quota_points"}`,
		"dyncomp_serve_inflight_requests",
		"dyncomp_serve_jobs_evicted_total",
		"dyncomp_serve_panics_total",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics missing %q after the overload run:\n%s", series, body)
		}
	}
}
