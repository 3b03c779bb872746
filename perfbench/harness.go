package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// A workload is one seeded traffic mix. Every client runs the ops of its
// rotation in order, closed loop: the next op starts when the previous
// one has completed. A phase always runs whole rotations, so the op mix
// of every phase is exactly the mix of the rotation.
type workload struct {
	name string
	// clients is the number of closed-loop clients.
	clients int
	// warmRotations is the fixed number of rotations each client runs
	// before measuring.
	warmRotations int
	// setup builds one instance from the seed: inputs, golden results
	// and servers. traced instances also carry the instrumentation
	// (middleware, round-tripper) the traced phase records through.
	setup func(seed int64, traced bool) (instance, error)
}

type instance interface {
	// rotation is the number of ops in one rotation of a client.
	rotation() int
	// op runs op n of client c, checks its outputs against the golden
	// results and returns the units of work it completed. t is nil in
	// untraced phases.
	op(c, n int, t *opTrace) (work int, err error)
	// layers computes the per-layer metrics from the spans of a traced
	// phase, plus probes that replay single layers on the workload's
	// own inputs.
	layers(rec *recorder) (map[string]float64, error)
	close()
}

// phase is the measurement of one run of windows.
type phase struct {
	wall      time.Duration
	work      int64
	attempted int64
	failed    int64
	windows   []window
	firstErrs []string
}

// window is a calibration followed by whole rotations on every client,
// lasting at least windowDur. Host CPU steal on a shared machine comes
// in bursts of about a second, and the host's speed drifts over
// minutes, so the end-to-end metrics are medians over windows of
// values scaled by each window's own calibration (calib.go).
type window struct {
	dur      time.Duration
	cpu      time.Duration
	ops      int64 // attempted
	work     int64
	latMs    []float64 // successful ops only
	speed    float64   // calibrator speed just before the window
	peakHeap uint64    // bytes
}

const windowDur = time.Second

const maxReportedErrs = 5

// runPhase runs windows until dur has passed.
func runPhase(w *workload, inst instance, cal *calibrator, dur time.Duration, rec *recorder) *phase {
	ph := &phase{}
	start := time.Now()
	for time.Since(start) < dur {
		ph.runWindow(w, inst, cal, rec, 0)
	}
	ph.wall = time.Since(start)
	return ph
}

// runRotations runs exactly n rotations on every client, in one
// window; it leaves the phase's wall time unset.
func runRotations(w *workload, inst instance, cal *calibrator, n int, rec *recorder) *phase {
	ph := &phase{}
	ph.runWindow(w, inst, cal, rec, n)
	return ph
}

// runWindow calibrates, then runs whole rotations on every client:
// exactly rotations of them, or, if rotations is 0, until windowDur
// has passed. The clients start together after the calibration and
// the window ends when the last one has finished its rotation.
func (ph *phase) runWindow(w *workload, inst instance, cal *calibrator, rec *recorder, rotations int) {
	win := window{speed: cal.speed()}
	stopHeap := sampleHeap(&win.peakHeap)
	rot := inst.rotation()
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(windowDur)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				local  window
				failed int64
				errs   []string
			)
			for done := 0; ; done++ {
				if rotations > 0 && done == rotations || rotations == 0 && !time.Now().Before(end) {
					break
				}
				for j := 0; j < rot; j++ {
					var t *opTrace
					if rec != nil {
						t = &opTrace{rec: rec, op: rec.newID()}
					}
					opStart := time.Now()
					work, err := inst.op(c, done*rot+j, t)
					opEnd := time.Now()
					t.root(opStart, opEnd)
					local.ops++
					if err != nil {
						failed++
						if len(errs) < maxReportedErrs {
							errs = append(errs, err.Error())
						}
						continue
					}
					local.work += int64(work)
					local.latMs = append(local.latMs, float64(opEnd.Sub(opStart).Nanoseconds())/1e6)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			win.ops += local.ops
			win.work += local.work
			win.latMs = append(win.latMs, local.latMs...)
			ph.failed += failed
			for _, e := range errs {
				if len(ph.firstErrs) < maxReportedErrs {
					ph.firstErrs = append(ph.firstErrs, e)
				}
			}
		}()
	}
	wg.Wait()
	win.dur = time.Since(start)
	win.cpu = cpuTime() - cpu0
	stopHeap()
	ph.attempted += win.ops
	ph.work += win.work
	ph.windows = append(ph.windows, win)
}

// merge adds the measurements of o to ph.
func (ph *phase) merge(o *phase) {
	ph.wall += o.wall
	ph.work += o.work
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.windows = append(ph.windows, o.windows...)
	for _, e := range o.firstErrs {
		if len(ph.firstErrs) < maxReportedErrs {
			ph.firstErrs = append(ph.firstErrs, e)
		}
	}
}

// workPerS is the median over windows of the scaled throughput of all
// clients together.
func (ph *phase) workPerS() float64 {
	return ph.overWindows(func(w window) float64 {
		return float64(w.work) / w.dur.Seconds() / w.speed
	})
}

// latency is the median over windows of the scaled q-quantile op
// latency.
func (ph *phase) latency(q float64) float64 {
	return ph.overWindows(func(w window) float64 { return percentile(w.latMs, q) * w.speed })
}

// cpuPerOp is the median over windows of the scaled CPU milliseconds
// per attempted op.
func (ph *phase) cpuPerOp() float64 {
	return ph.overWindows(func(w window) float64 {
		return float64(w.cpu.Nanoseconds()) / 1e6 / float64(w.ops) * w.speed
	})
}

func (ph *phase) overWindows(f func(window) float64) float64 {
	var xs []float64
	for _, w := range ph.windows {
		if len(w.latMs) > 0 {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

// endToEnd returns the end-to-end metrics of an untraced phase.
func (ph *phase) endToEnd() map[string]metric {
	return map[string]metric{
		"work_per_s":    {ph.workPerS(), "1/s"},
		"op_ms_p50":     {ph.latency(0.50), "ms"},
		"op_ms_p90":     {ph.latency(0.90), "ms"},
		"cpu_ms_per_op": {ph.cpuPerOp(), "ms"},
		"peak_heap_mb":  {ph.overWindows(func(w window) float64 { return float64(w.peakHeap) / (1 << 20) }), "MB"},
	}
}

// report prints the phase summary, with failed/attempted, to standard
// error.
func (ph *phase) report(label string) {
	var speeds []float64
	for _, w := range ph.windows {
		speeds = append(speeds, w.speed)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %-24s %d/%d ops failed, %.1fs wall, %.1f work/s scaled (%.1f raw over the phase), host speed %.2f..%.2f (median %.3f), p50 %.3f ms, p90 %.3f ms\n",
		label, ph.failed, ph.attempted, ph.wall.Seconds(), ph.workPerS(), float64(ph.work)/ph.wall.Seconds(),
		percentile(speeds, 0), percentile(speeds, 1), median(speeds), ph.latency(0.5), ph.latency(0.9))
	for _, e := range ph.firstErrs {
		fmt.Fprintf(os.Stderr, "perfbench:   failed op: %s\n", e)
	}
}

// cpuTime is the user plus system CPU time of the process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampleEvery is the sampling period of the live-heap peak.
const heapSampleEvery = 2 * time.Millisecond

// sampleHeap tracks the peak of the bytes held by heap objects until
// the returned stop function is called; stop returns after the
// sampler has exited.
func sampleHeap(peak *uint64) (stop func()) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > *peak {
			*peak = v
		}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			read()
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		read()
	}
}
