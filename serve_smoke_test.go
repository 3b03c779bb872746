package dyncomp_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeSmoke builds the dyncomp-serve binary, starts it on a random
// port and exercises the serving layer end to end the way an operator
// would: probe /healthz, evaluate /v1/run twice (the second request
// must be a derive-cache hit), cancel a sweep job mid-flight, and shut
// the process down gracefully with SIGTERM.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("building and running the server binary is not short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not in PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "dyncomp-serve")
	if out, err := exec.Command(gobin, "build", "-o", bin, "./cmd/dyncomp-serve").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-job-workers", "1", "-sweep-workers", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	exited := false // set once the test consumed the single done value
	defer func() {
		if !exited {
			cmd.Process.Kill()
			<-done
		}
	}()

	// The server prints "listening on <addr>" before serving.
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatalf("no listening line; stderr:\n%s", stderr.String())
	}
	// Keep draining stdout so the process never blocks on a full pipe.
	outRest := make(chan string, 1)
	go func() {
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteString("\n")
		}
		outRest <- rest.String()
	}()

	if err := waitHTTP(base+"/healthz", 10*time.Second); err != nil {
		t.Fatalf("healthz: %v; stderr:\n%s", err, stderr.String())
	}

	// Two structurally identical runs: the second must be a cache hit.
	type cacheStats struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	}
	type runResponse struct {
		Result struct {
			FinalTimeNs int64 `json:"final_time_ns"`
		} `json:"result"`
		Cache cacheStats `json:"cache"`
	}
	runBody := `{"engine":"equivalent","scenario":"didactic","params":{"tokens":200}}`
	var first, second runResponse
	postSmoke(t, base+"/v1/run", runBody, http.StatusOK, &first)
	postSmoke(t, base+"/v1/run", runBody, http.StatusOK, &second)
	if first.Result.FinalTimeNs == 0 || first.Cache.Misses != 1 {
		t.Fatalf("first run %+v", first)
	}
	if second.Cache.Hits != 1 || second.Cache.Misses != 1 {
		t.Fatalf("second run was no derive-cache hit: %+v", second.Cache)
	}

	// A batched sweep job over one structural shape: four seeds at lane
	// width 2 make two full batches of the adaptive engine, the one with
	// a batched form. The /metrics scrape afterwards must
	// render the batch-occupancy gauge and the per-shape hit gauges.
	var bjob struct {
		ID string `json:"id"`
	}
	postSmoke(t, base+"/v1/sweeps",
		`{"engine":"adaptive","scenario":"didactic","axes":[{"name":"seed","values":[1,2,3,4]}],"params":{"tokens":50},"options":{"workers":1,"batch_width":2}}`,
		http.StatusAccepted, &bjob)
	bdeadline := time.Now().Add(20 * time.Second)
	for {
		var jr struct {
			State string `json:"state"`
			Stats *struct {
				Batches        int     `json:"batches"`
				BatchedPoints  int     `json:"batched_points"`
				BatchOccupancy float64 `json:"batch_occupancy"`
			} `json:"stats"`
		}
		getSmoke(t, base+"/v1/sweeps/"+bjob.ID, &jr)
		if jr.State == "done" {
			if jr.Stats == nil || jr.Stats.Batches != 2 || jr.Stats.BatchedPoints != 4 || jr.Stats.BatchOccupancy != 1.0 {
				t.Fatalf("batched job stats %+v", jr.Stats)
			}
			break
		}
		if jr.State == "failed" || jr.State == "cancelled" {
			t.Fatalf("batched job settled as %q", jr.State)
		}
		if time.Now().After(bdeadline) {
			t.Fatalf("batched job stuck in %q", jr.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metricsBody := string(mraw)
	for _, want := range []string{
		"dyncomp_serve_sweep_batches_total 2",
		"dyncomp_serve_sweep_batch_points_total 4",
		"dyncomp_serve_sweep_batch_occupancy 1.0000",
		"dyncomp_serve_derive_cache_shape_hits{",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metricsBody)
		}
	}

	// A sweep job slow enough to still run when the DELETE lands.
	var job struct {
		ID string `json:"id"`
	}
	postSmoke(t, base+"/v1/sweeps",
		`{"engine":"reference","scenario":"lte","axes":[{"name":"symbols","values":[20000,20001,20002]}],"options":{"workers":1}}`,
		http.StatusAccepted, &job)
	if job.ID == "" {
		t.Fatal("no job id")
	}
	dreq, _ := http.NewRequest(http.MethodDelete, base+"/v1/sweeps/"+job.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		var jr struct {
			State string `json:"state"`
		}
		getSmoke(t, base+"/v1/sweeps/"+job.ID, &jr)
		if jr.State == "cancelled" {
			break
		}
		if jr.State == "done" || jr.State == "failed" {
			t.Fatalf("job settled as %q, want cancelled", jr.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jr.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Graceful shutdown: SIGTERM, clean exit, the farewell lines out.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		exited = true
		if err != nil {
			t.Fatalf("server exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit within 30s of SIGTERM")
	}
	rest := <-outRest
	if !strings.Contains(rest, "shutting down") || !strings.Contains(rest, "bye") {
		t.Fatalf("shutdown output missing:\n%s", rest)
	}
}

// waitHTTP polls url until it answers 200.
func waitHTTP(url string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func postSmoke(t *testing.T, url, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d\n%s", url, resp.StatusCode, wantStatus, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("POST %s: %v\n%s", url, err, raw)
	}
}

func getSmoke(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
