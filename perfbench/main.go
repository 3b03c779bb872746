// Command perfbench is the repository benchmark. It runs one of four
// seeded, closed-loop workloads against the internal packages in one
// process, checks every output against golden results computed during
// set-up, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload engine_runs --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics of an
// untraced run. With --trace 1 the named workload runs untraced and
// traced for half of --seconds each, and the other three workloads
// run a short traced phase, so that the object holds every per-layer
// metric; spans are timed from outside, around the calls into each
// layer, and are written to .bench_build/spans when the run ends.
// NOTES.md explains the workloads and records the first traced
// baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// setupReps is how many times set-up runs; setup_s is their median and
// the last instance is measured.
const setupReps = 9

// briefTrace is the traced phase of the workloads a --trace 1 run does
// not name.
const briefTrace = 2 * time.Second

// traceChunk is the length of one untraced or traced chunk of the
// named workload in a --trace 1 run.
const traceChunk = 2 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: engine_runs, sweep_grid, http_mixed or fleet_sweep")
	seed := flag.Int64("seed", 1, "seed of the workload inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1: measure the per-layer metrics in a traced run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measured phase to this file (keep it outside the repository)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the measured phase to this file (keep it outside the repository)")
	flag.Parse()

	w := lookup(*name)
	switch {
	case w == nil:
		fatalf("unknown --workload %q (want %s)", *name, workloadNames())
	case *seconds < 1:
		fatalf("--seconds must be at least 1 (got %d)", *seconds)
	case *trace != 0 && *trace != 1:
		fatalf("--trace must be 0 or 1 (got %d)", *trace)
	}
	dur := time.Duration(*seconds) * time.Second

	cal, err := newCalibrator(runtime.GOMAXPROCS(0))
	if err != nil {
		fatalf("%v", err)
	}
	var out result
	if *trace == 1 {
		out = traceRun(w, cal, *seed, dur)
	} else {
		out = plainRun(w, cal, *seed, dur, *cpuProfile, *memProfile)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// plainRun measures the end-to-end metrics of one workload with tracing
// off.
func plainRun(w *workload, cal *calibrator, seed int64, dur time.Duration, cpuProfile, memProfile string) result {
	inst, setupS := setUp(w, cal, seed, setupReps, false)
	defer inst.close()
	warmUp(w, inst, cal)

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("-cpuprofile: %v", err)
			}
		}()
	}
	ph := runPhase(w, inst, cal, dur, nil)
	if memProfile != "" {
		writeHeapProfile(memProfile)
	}
	ph.report(w.name)

	ms := ph.endToEnd()
	ms["setup_s"] = metric{setupS, "s"}
	return result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: ms}
}

// traceRun measures the per-layer metrics: the named workload untraced
// and traced for half of dur each, in alternating chunks (their
// throughput ratio is the tracing overhead), then every other workload
// traced for briefTrace.
func traceRun(named *workload, cal *calibrator, seed int64, dur time.Duration) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	add := func(ph *phase) {
		out.Attempted += ph.attempted
		out.Failed += ph.failed
		if ph.failed > 0 {
			out.Correct = false
		}
	}
	order := []*workload{named}
	for _, w := range workloads {
		if w != named {
			order = append(order, w)
		}
	}
	for _, w := range order {
		inst, _ := setUp(w, cal, seed, 1, true)
		warmUp(w, inst, cal)
		rec := newRecorder()
		var ph, plain *phase
		if w == named {
			plain, ph = alternate(w, inst, cal, dur/2, rec)
			plain.report(w.name + " untraced")
			add(plain)
		} else {
			ph = runPhase(w, inst, cal, briefTrace, rec)
		}
		ph.report(w.name + " traced")
		add(ph)
		layers, err := inst.layers(rec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s layers: %v\n", w.name, err)
			out.Correct = false
			out.Failed++
		}
		for k, v := range layers {
			out.Metrics[k] = metric{v, layerUnits[k]}
		}
		if plain != nil {
			out.Metrics["trace.overhead_share"] = metric{1 - ph.workPerS()/plain.workPerS(), "share"}
		}
		if err := rec.writeFile(filepath.Join(".bench_build", "spans", w.name+".ndjson")); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
		inst.close()
	}
	for k := range layerUnits {
		if _, ok := out.Metrics[k]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: per-layer metric %s was not measured\n", k)
			out.Correct = false
		}
	}
	return out
}

// alternate runs untraced and traced chunks of traceChunk in turn, dur
// of each in total, so that drift in the host's speed reaches both
// sides alike.
func alternate(w *workload, inst instance, cal *calibrator, dur time.Duration, rec *recorder) (plain, traced *phase) {
	plain, traced = &phase{}, &phase{}
	for done := time.Duration(0); done < dur; done += traceChunk {
		plain.merge(runPhase(w, inst, cal, traceChunk, nil))
		traced.merge(runPhase(w, inst, cal, traceChunk, rec))
	}
	return plain, traced
}

// setUp builds the workload reps times and returns the last instance
// with the median set-up time in seconds, each scaled by a calibration
// made just before it. Compilation and process start-up are outside
// it; golden results are inside it.
func setUp(w *workload, cal *calibrator, seed int64, reps int, traced bool) (instance, float64) {
	var (
		times []float64
		inst  instance
	)
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		speed := cal.speed()
		start := time.Now()
		var err error
		inst, err = w.setup(seed, traced)
		if err != nil {
			fatalf("%s set-up: %v", w.name, err)
		}
		times = append(times, time.Since(start).Seconds()*speed)
	}
	return inst, median(times)
}

// warmUp runs a fixed number of whole rotations per client, untimed,
// so caches fill and lazy set-up finishes before measuring.
func warmUp(w *workload, inst instance, cal *calibrator) {
	ph := runRotations(w, inst, cal, w.warmRotations, nil)
	if ph.failed > 0 {
		fatalf("%s warm-up: %d of %d ops failed", w.name, ph.failed, ph.attempted)
	}
}

func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("-memprofile: %v", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatalf("-memprofile: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("-memprofile: %v", err)
	}
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
