package serve

// Admission-control tests: bearer-token auth, per-caller job and
// grid-point quotas, in-flight load shedding, per-request deadlines,
// the readiness probe, settled-job TTL eviction and the panic-recovery
// middleware — each rejection pinned to its stable error code and
// /metrics series.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func authedPost(t *testing.T, url, token string, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const runBody = `{"scenario":"pipeline","params":{"tokens":20}}`

// With tokens configured, API endpoints demand a valid bearer token;
// probes (/healthz, /readyz, /metrics) stay open for infrastructure.
func TestAuthTokens(t *testing.T) {
	_, ts := newTestServer(t, Config{
		AuthTokens: map[string]string{"s3cret": "alice"},
	})

	// No credentials.
	resp := authedPost(t, ts.URL+"/v1/run", "", runBody)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token answered %d, want 401", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeUnauthorized {
		t.Fatalf("code %q, want %q", code, CodeUnauthorized)
	}

	// Wrong token.
	resp = authedPost(t, ts.URL+"/v1/run", "wrong", runBody)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token answered %d, want 401", resp.StatusCode)
	}

	// Light GET endpoints are protected too.
	resp, err := http.Get(ts.URL + "/v1/engines")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/engines answered %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	// Valid token.
	resp = authedPost(t, ts.URL+"/v1/run", "s3cret", runBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid token answered %d (%s)", resp.StatusCode, errorCode(t, resp))
	}
	resp.Body.Close()

	// Probes never require credentials.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s answered %d with auth enabled, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The rejections surfaced on /metrics with their reason.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `dyncomp_serve_rejections_total{reason="unauthorized"}`) {
		t.Fatalf("metrics missing the unauthorized rejection series:\n%s", raw)
	}
}

// The per-caller concurrent-job quota answers 429 quota_exceeded once
// the caller's budget is used, and frees on job settlement.
func TestJobQuota(t *testing.T) {
	s, ts := newTestServer(t, Config{QuotaJobs: 1})

	// Occupy the single slot for the unauthenticated caller (identified
	// by remote host, 127.0.0.1 under httptest).
	if !s.quotas.reserveJob("127.0.0.1", 1) {
		t.Fatal("fresh quota refused the first job")
	}
	resp := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "pipeline",
		Axes:     []Axis{{Name: "tokens", Values: []int64{20, 40}}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit answered %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("quota rejection carries no Retry-After")
	}
	if code := errorCode(t, resp); code != CodeQuotaExceeded {
		t.Fatalf("code %q, want %q", code, CodeQuotaExceeded)
	}

	// Freeing the slot admits the next job.
	s.quotas.releaseJob("127.0.0.1")
	resp = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "pipeline",
		Axes:     []Axis{{Name: "tokens", Values: []int64{20, 40}}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("freed quota answered %d (%s)", resp.StatusCode, errorCode(t, resp))
	}
	j := decodeBody[Job](t, resp)
	waitJob(t, ts.URL, j.ID, terminal)
}

// The grid-point quota meters evaluation volume per fixed window: runs
// under the budget pass, the crossing request answers 429 with a
// Retry-After no longer than the window.
func TestPointQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{QuotaPoints: 3, QuotaWindow: time.Hour})

	for i := 0; i < 3; i++ {
		resp := authedPost(t, ts.URL+"/v1/run", "", runBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d answered %d (%s)", i, resp.StatusCode, errorCode(t, resp))
		}
		resp.Body.Close()
	}
	resp := authedPost(t, ts.URL+"/v1/run", "", runBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget run answered %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("point-quota rejection carries no Retry-After")
	}
	if code := errorCode(t, resp); code != CodeQuotaExceeded {
		t.Fatalf("code %q, want %q", code, CodeQuotaExceeded)
	}

	// A sweep larger than the whole budget is rejected up front, before
	// any evaluation.
	resp = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "pipeline",
		Axes:     []Axis{{Name: "tokens", Values: []int64{20, 40, 60, 80}}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized sweep answered %d, want 429", resp.StatusCode)
	}
}

// Load shedding: past MaxInFlight concurrent requests, work endpoints
// answer 429 overloaded immediately; probes keep answering so the
// instance is never opaque under overload.
func TestLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})

	// Simulate one request already in flight.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	resp := authedPost(t, ts.URL+"/v1/run", "", runBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed run answered %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("shed rejection carries no Retry-After")
	}
	if code := errorCode(t, resp); code != CodeOverloaded {
		t.Fatalf("code %q, want %q", code, CodeOverloaded)
	}

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		probe, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if probe.StatusCode != http.StatusOK {
			t.Fatalf("%s answered %d under shedding, want 200", path, probe.StatusCode)
		}
		probe.Body.Close()
	}
}

// A request deadline shorter than the evaluation surfaces as a
// structured 504 deadline_exceeded, not a hang and not a torn response.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})

	resp := authedPost(t, ts.URL+"/v1/run", "", runBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out run answered %d, want 504", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeDeadlineExceeded {
		t.Fatalf("code %q, want %q", code, CodeDeadlineExceeded)
	}
}

// /readyz flips to 503 when the server is draining, while /healthz
// keeps reporting liveness — the split load balancers key on.
func TestReadyzDraining(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz answered %d before drain, want 200", resp.StatusCode)
	}

	s.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz answered %d, want 503", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeUnavailable {
		t.Fatalf("code %q, want %q", code, CodeUnavailable)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz answered %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// Settled jobs age out past the TTL: the janitor drops them, the API
// answers 404, and the eviction is counted on /metrics.
func TestJobTTLEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTTL: 30 * time.Millisecond})

	resp := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Scenario: "pipeline",
		Axes:     []Axis{{Name: "tokens", Values: []int64{20, 40}}},
	})
	j := decodeBody[Job](t, resp)
	waitJob(t, ts.URL, j.ID, terminal)

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/sweeps/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusNotFound {
			if code := errorCode(t, r); code != CodeJobNotFound {
				t.Fatalf("evicted job code %q, want %q", code, CodeJobNotFound)
			}
			break
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("settled job never aged out past the TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(raw), "dyncomp_serve_jobs_evicted_total 1") {
		t.Fatalf("metrics missing the eviction count:\n%s", raw)
	}
}

// The MaxJobs cap evicts the oldest settled jobs beyond the count.
func TestMaxJobsEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 1})

	submit := func() string {
		resp := postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
			Scenario: "pipeline",
			Axes:     []Axis{{Name: "tokens", Values: []int64{20, 40}}},
		})
		j := decodeBody[Job](t, resp)
		waitJob(t, ts.URL, j.ID, terminal)
		return j.ID
	}
	first := submit()
	second := submit()
	if n := s.jobs.Evict(time.Now(), 0, 1); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
	if _, ok := s.jobs.Get(first); ok {
		t.Fatalf("oldest settled job %s survived the MaxJobs cap", first)
	}
	if _, ok := s.jobs.Get(second); !ok {
		t.Fatalf("newest job %s evicted, want kept", second)
	}
}

// Between two ticks the janitor also wakes when Add takes the table past
// MaxJobs by more than its slack (an eighth of MaxJobs, at least one
// job), so the settled jobs it keeps do not grow with the rate at which
// jobs settle.
func TestJanitorWakesPastMaxJobs(t *testing.T) {
	tab := newJobTable(nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tab.janitor(ctx, 0, 1)
	}()
	defer func() { cancel(); <-done }()
	for armed := false; !armed; {
		tab.mu.Lock()
		armed = tab.maxJobs == 1
		tab.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	for i := 0; i < 3; i++ {
		j := &SweepJob{}
		j.Settle(JobDone, "", time.Now())
		if err := tab.Add(j, nil); err != nil {
			t.Fatal(err)
		}
	}
	for tab.Len() != 1 {
		if time.Since(start) > 500*time.Millisecond {
			t.Fatalf("%d jobs kept 500ms after the third, want 1 before the first tick", tab.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

// The outermost middleware converts a handler panic into a structured
// 500 internal envelope and reports it, instead of tearing the
// connection.
func TestPanicRecoveryMiddleware(t *testing.T) {
	panicked := 0
	h := AccessLog{OnPanic: func() { panicked++ }}.Wrap(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			panic("injected")
		}))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != CodeInternal {
		t.Fatalf("code %q, want %q", code, CodeInternal)
	}
	if panicked != 1 {
		t.Fatalf("OnPanic fired %d times, want 1", panicked)
	}
}
