package shard

// Front-end parity: the single server and the coordinator share one job
// lifecycle, so the same client-side contract must hold against both.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyncomp/internal/serve"
)

// holdTransport parks every chunk until release is closed.
type holdTransport struct {
	inner   Transport
	release chan struct{}
}

func (t *holdTransport) RunChunk(ctx context.Context, workerURL string, req serve.ChunkRequest) (*serve.ChunkResponse, error) {
	select {
	case <-t.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return t.inner.RunChunk(ctx, workerURL, req)
}

// deleteJob issues DELETE /v1/sweeps/{id} and returns the response.
func deleteJob(t *testing.T, base, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sweeps/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// newServe starts a single serve.Server over httptest.
func newServe(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

// sseJob is a front end holding one sweep job back until release: the
// event stream can attach while the job has made no progress yet.
type sseJob func(t *testing.T) (base, id string, release func())

var sseFrontEnds = []struct {
	name  string
	start sseJob
}{
	{"serve", func(t *testing.T) (string, string, func()) {
		// A one-worker pool busy with a slow blocker keeps the observed
		// job queued; cancelling the blocker lets it run.
		_, base := newServe(t, serve.Config{JobWorkers: 1})
		blocker := submitSweep(t, base, serve.SweepRequest{
			Engine:   "reference",
			Scenario: "lte",
			Axes:     []serve.Axis{{Name: "symbols", Values: []int64{50000}}},
			Options:  serve.SweepOptions{Workers: 1},
		})
		j := submitSweep(t, base, faultReq)
		return base, j.ID, func() { deleteJob(t, base, blocker.ID).Body.Close() }
	}},
	{"coordinator", func(t *testing.T) (string, string, func()) {
		hold := &holdTransport{inner: &httpTransport{client: &http.Client{}}, release: make(chan struct{})}
		_, ts := newCoord(t, Config{Workers: newFleet(t, 1), ChunkPoints: 2, Transport: hold})
		j := submitSweep(t, ts.URL, faultReq)
		return ts.URL, j.ID, func() { close(hold.release) }
	}},
}

// The /events contract, checked against both front ends: the first event
// is a state snapshot, progress counts are absolute and never go down,
// at least one progress event precedes the terminal state, and the
// terminal state is the last event before EOF.
func TestSSEParity(t *testing.T) {
	for _, fe := range sseFrontEnds {
		t.Run(fe.name, func(t *testing.T) {
			base, id, release := fe.start(t)
			resp, err := http.Get(base + "/v1/sweeps/" + id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			release()
			events := parseSSE(t, resp) // to EOF
			if len(events) < 2 || events[0].name != "state" {
				t.Fatalf("events %v, want a state snapshot first", events)
			}
			last := events[len(events)-1]
			var fin serve.Job
			if err := json.Unmarshal([]byte(last.data), &fin); err != nil || last.name != "state" {
				t.Fatalf("last event %+v (%v), want the terminal state", last, err)
			}
			if fin.State != "done" || fin.Done != fin.Total {
				t.Fatalf("terminal state %q at %d/%d, want done at total", fin.State, fin.Done, fin.Total)
			}
			done, progressed := -1, false
			for i, ev := range events[:len(events)-1] {
				switch ev.name {
				case "progress":
					var p struct{ Done, Total int }
					if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
						t.Fatalf("bad progress payload %q: %v", ev.data, err)
					}
					if p.Done < done || p.Total != fin.Total {
						t.Fatalf("progress %d/%d after %d, want absolute non-decreasing counts of %d", p.Done, p.Total, done, fin.Total)
					}
					done, progressed = p.Done, true
				case "state":
					var s serve.Job
					if err := json.Unmarshal([]byte(ev.data), &s); err != nil {
						t.Fatalf("bad state payload %q: %v", ev.data, err)
					}
					if terminalWire(s.State) {
						t.Fatalf("terminal state %q at event %d of %d, want it last", s.State, i, len(events))
					}
				default:
					t.Fatalf("unknown event %q", ev.name)
				}
			}
			if !progressed {
				t.Fatalf("no progress event before the terminal state: %v", events)
			}
		})
	}
}

// Cancelling a queued job settles it as cancelled at once on both front
// ends; the coordinator persists that state through the settle hook, so
// a restart reports it cancelled instead of running it.
func TestCancelQueuedParity(t *testing.T) {
	cancelQueued := func(t *testing.T, base, id string) {
		t.Helper()
		resp := deleteJob(t, base, id)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel answered %d", resp.StatusCode)
		}
		if got := decodeBody[serve.Job](t, resp); got.State != "cancelled" {
			t.Fatalf("queued job reported %q after cancel, want cancelled", got.State)
		}
		if res := getResult(t, base, id); res.State != "cancelled" {
			t.Fatalf("queued job settled as %q, want cancelled", res.State)
		}
		resp = deleteJob(t, base, id)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("second cancel answered %d, want 409", resp.StatusCode)
		}
		if code := errorCode(t, resp); code != serve.CodeJobTerminal {
			t.Fatalf("second cancel code %q, want %q", code, serve.CodeJobTerminal)
		}
	}

	t.Run("serve", func(t *testing.T) {
		base, queued, release := sseFrontEnds[0].start(t)
		cancelQueued(t, base, queued)
		release()
	})

	t.Run("coordinator", func(t *testing.T) {
		workers := newFleet(t, 1)
		storePath := t.TempDir() + "/jobs.ndjson"
		c1, ts1 := newCoord(t, Config{Workers: workers, ChunkPoints: 2, StorePath: storePath})
		// submit without the launch: the job stays queued.
		j, rerr := serve.NewSweepJob(faultReq, serve.SweepDefaults{}, 2, time.Now())
		if rerr != nil {
			t.Fatal(rerr)
		}
		j.OnSettle = c1.persistState(j)
		if err := c1.jobs.Add(j, nil); err != nil {
			t.Fatal(err)
		}
		if err := c1.store.AppendJob(j.ID, j.Created, faultReq, 2); err != nil {
			t.Fatal(err)
		}
		cancelQueued(t, ts1.URL, j.ID)
		ts1.Close()
		c1.Close()

		c2, err := New(Config{Workers: workers, ChunkPoints: 2, StorePath: storePath})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c2.Close)
		got, ok := c2.jobs.Get(j.ID)
		if !ok {
			t.Fatalf("job %s lost across restart", j.ID)
		}
		if snap := got.Snapshot(); snap.State != "cancelled" {
			t.Fatalf("restarted state %q, want cancelled", snap.State)
		}
	})
}

// Both /metrics endpoints write each metric family once, as one group:
// its HELP line, its TYPE line, then its samples — and exactly the
// families listed here, in this order, with these types.
func TestMetricsExposition(t *testing.T) {
	families := map[string][]string{
		"coordinator": {
			"dyncomp_coord_workers gauge",
			"dyncomp_coord_workers_alive gauge",
			"dyncomp_coord_breaker_state gauge",
			"dyncomp_coord_breaker_opened_total counter",
			"dyncomp_coord_breaker_closed_total counter",
			"dyncomp_coord_chunk_retries_total counter",
			"dyncomp_coord_jobs gauge",
			"dyncomp_coord_jobs_evicted_total counter",
			"dyncomp_coord_store_compactions_total counter",
			"dyncomp_coord_panics_total counter",
		},
		"serve": {
			"dyncomp_serve_requests_total counter",
			"dyncomp_serve_runs_total counter",
			"dyncomp_serve_jobs_total counter",
			"dyncomp_serve_chunks_total counter",
			"dyncomp_serve_optimizations_total counter",
			"dyncomp_serve_rejections_total counter",
			"dyncomp_serve_inflight_requests gauge",
			"dyncomp_serve_jobs_evicted_total counter",
			"dyncomp_serve_panics_total counter",
			"dyncomp_serve_chunk_points_total counter",
			"dyncomp_serve_derive_cache_hits_total counter",
			"dyncomp_serve_derive_cache_misses_total counter",
			"dyncomp_serve_derive_cache_evictions_total counter",
			"dyncomp_serve_derive_cache_shapes gauge",
			"dyncomp_serve_derive_cache_entry_limit gauge",
			"dyncomp_serve_derive_cache_shape_hits gauge",
			"dyncomp_serve_tdg_compiles_total counter",
			"dyncomp_serve_sweep_batches_total counter",
			"dyncomp_serve_sweep_batch_points_total counter",
			"dyncomp_serve_sweep_batch_lanes_total counter",
			"dyncomp_serve_sweep_batch_occupancy gauge",
			"dyncomp_serve_sweep_simulated_points_total counter",
			"dyncomp_serve_sweep_predicted_points_total counter",
			"dyncomp_serve_sweep_pred_error histogram",
			"dyncomp_serve_jobs_queued gauge",
			"dyncomp_serve_jobs_running gauge",
			"dyncomp_serve_uptime_seconds gauge",
		},
	}
	workers := newFleet(t, 1)
	_, cts := newCoord(t, Config{Workers: workers, ChunkPoints: 2})
	_, server := newServe(t, serve.Config{})
	coord := cts.URL
	waitTerminal(t, coord, submitSweep(t, coord, faultReq).ID)
	waitTerminal(t, server, submitSweep(t, server, faultReq).ID)

	for name, base := range map[string]string{"coordinator": coord, "serve": server} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			var typed []string
			family, typ, helped := "", "", false
			samples := 0
			sc := bufio.NewScanner(strings.NewReader(string(raw)))
			for sc.Scan() {
				line := sc.Text()
				switch f := strings.Fields(line); {
				case strings.HasPrefix(line, "# HELP "):
					if seen[f[2]] {
						t.Fatalf("family %s written twice", f[2])
					}
					seen[f[2]] = true
					family, typ, helped = f[2], "", true
				case strings.HasPrefix(line, "# TYPE "):
					if f[2] != family || typ != "" || !helped {
						t.Fatalf("TYPE line %q not right after the HELP of its family", line)
					}
					typ = f[3]
					typed = append(typed, family+" "+typ)
				default:
					sample := strings.FieldsFunc(f[0], func(r rune) bool { return r == '{' })[0]
					if typ == "histogram" {
						for _, suffix := range []string{"_bucket", "_sum", "_count"} {
							sample = strings.TrimSuffix(sample, suffix)
						}
					}
					if sample != family || typ == "" {
						t.Fatalf("sample %q outside its family's HELP/TYPE group (current family %q)", line, family)
					}
					samples++
				}
			}
			if len(seen) < 8 || samples < len(seen)-1 {
				t.Fatalf("%d families, %d samples — scrape looks truncated:\n%s", len(seen), samples, raw)
			}
			if got, want := strings.Join(typed, "\n"), strings.Join(families[name], "\n"); got != want {
				t.Fatalf("families and types:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
