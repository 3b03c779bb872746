package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// script returns a handler that runs steps[i] on its i-th call. Each
// step arms the trigger of the next call; the process ends when a step
// arms none, or after the last step.
func script(steps ...func(p *Proc)) func(p *Proc) {
	i := 0
	return func(p *Proc) {
		if i < len(steps) {
			i++
			steps[i-1](p)
		}
	}
}

// every returns a handler that calls f and then waits d, forever.
func every(d Time, f func(p *Proc)) func(p *Proc) {
	return func(p *Proc) {
		f(p)
		p.After(d)
	}
}

func TestProcessesStartAtTimeZeroInSpawnOrder(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Proc) { order = append(order, "a") })
	k.Spawn("b", func(p *Proc) { order = append(order, "b") })
	k.Spawn("c", func(p *Proc) { order = append(order, "c") })
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("start order = %q, want abc", got)
	}
	if k.Now() != 0 {
		t.Fatalf("final time = %d, want 0", k.Now())
	}
}

func TestWaitAdvancesTime(t *testing.T) {
	k := New()
	var seen []Time
	k.Spawn("p", script(
		func(p *Proc) { seen = append(seen, p.Now()); p.After(10) },
		func(p *Proc) { seen = append(seen, p.Now()); p.After(5) },
		func(p *Proc) { seen = append(seen, p.Now()) },
	))
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 10, 15}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen = %v, want %v", seen, want)
		}
	}
	if k.Stats().FinalTime != 15 {
		t.Fatalf("final time = %d", k.Stats().FinalTime)
	}
}

func TestZeroWaitYields(t *testing.T) {
	// A zero wait must let another runnable process execute in between,
	// and it costs one timed event.
	k := New()
	var order []string
	k.Spawn("a", script(
		func(p *Proc) { order = append(order, "a1"); p.After(0) },
		func(p *Proc) { order = append(order, "a2") },
	))
	k.Spawn("b", func(p *Proc) { order = append(order, "b1") })
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a1,b1,a2" {
		t.Fatalf("order = %q, want a1,b1,a2", got)
	}
	// Two initial activations plus the zero wait.
	if s := k.Stats(); s.TimedEvents != 3 || s.Activations != 3 {
		t.Fatalf("%d timed events, %d activations; want 3, 3", s.TimedEvents, s.Activations)
	}
}

func TestWaitUntil(t *testing.T) {
	k := New()
	var at []Time
	k.Spawn("p", script(
		func(p *Proc) { p.At(42) },
		func(p *Proc) { at = append(at, p.Now()); p.At(10) }, // in the past: zero wait
		func(p *Proc) { at = append(at, p.Now()) },
	))
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 42 || at[1] != 42 {
		t.Fatalf("times = %v, want [42 42]", at)
	}
	if s := k.Stats(); s.TimedEvents != 3 {
		t.Fatalf("%d timed events, want 3", s.TimedEvents)
	}
}

func TestEventNotifyWakesWaiters(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	var woke []string
	for _, name := range []string{"w1", "w2"} {
		k.Spawn(name, script(
			func(p *Proc) { p.On(ev) },
			func(p *Proc) { woke = append(woke, fmt.Sprintf("%s@%d", p.Name(), p.Now())) },
		))
	}
	k.Spawn("n", script(
		func(p *Proc) { p.After(7) },
		func(p *Proc) { ev.Notify() },
	))
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(woke, ","); got != "w1@7,w2@7" {
		t.Fatalf("woke = %q", got)
	}
}

func TestNotifyWithNoWaitersIsLost(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	reached := false
	k.Spawn("n", func(p *Proc) {
		ev.Notify() // nobody waits yet: lost
	})
	k.Spawn("w", script(
		func(p *Proc) { p.After(1) }, // register after the notify
		func(p *Proc) { p.On(ev) },
		func(p *Proc) { reached = true }, // must never run
	))
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("lost notification unexpectedly woke the waiter")
	}
}

func TestNotifyAfterAndAt(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	ev2 := k.NewEvent("ev2")
	var t1, t2 Time
	k.Spawn("w", script(
		func(p *Proc) { p.On(ev) },
		func(p *Proc) { t1 = p.Now(); p.On(ev2) },
		func(p *Proc) { t2 = p.Now() },
	))
	k.Spawn("n", script(
		func(p *Proc) { ev.NotifyAfter(30); p.After(30) },
		func(p *Proc) { ev2.NotifyAt(50) },
	))
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if t1 != 30 || t2 != 50 {
		t.Fatalf("wake times = %d, %d; want 30, 50", t1, t2)
	}
}

func TestNotifyAtInPastClampsToNow(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	var woke Time = -1
	k.Spawn("w", script(
		func(p *Proc) { p.On(ev) },
		func(p *Proc) { woke = p.Now() },
	))
	k.Spawn("n", script(
		func(p *Proc) { p.After(20) },
		func(p *Proc) { ev.NotifyAt(5) },
	))
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if woke != 20 {
		t.Fatalf("woke = %d, want 20", woke)
	}
}

func TestRunLimitStopsSimulation(t *testing.T) {
	k := New()
	calls := 0
	k.Spawn("p", every(10, func(*Proc) { calls++ }))
	if err := k.Run(35); err != nil {
		t.Fatal(err)
	}
	// Called at 0, 10, 20 and 30; the wake at 40 is past the limit.
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if k.Now() != 35 {
		t.Fatalf("final time = %d, want 35", k.Now())
	}
}

func TestProcessPanicBecomesError(t *testing.T) {
	k := New()
	k.Spawn("bad", script(
		func(p *Proc) { p.After(1) },
		func(p *Proc) { panic("boom") },
	))
	k.Spawn("good", every(1, func(*Proc) {}))
	err := k.Run(Forever)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestArmingTwiceFails(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	after := false
	k.Spawn("greedy", script(
		func(p *Proc) { p.After(1); p.On(ev) },
		func(p *Proc) { after = true },
	))
	err := k.Run(Forever)
	if err == nil || !strings.Contains(err.Error(), `"greedy"`) || !strings.Contains(err.Error(), "two triggers") {
		t.Fatalf("err = %v", err)
	}
	if after {
		t.Fatal("the run went on after the failing activation")
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) { p.After(-1) })
	if err := k.Run(Forever); err == nil {
		t.Fatal("expected error from negative wait")
	}
}

func TestNegativeNotifyPanics(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	k.Spawn("p", func(p *Proc) { ev.NotifyAfter(-3) })
	if err := k.Run(Forever); err == nil {
		t.Fatal("expected error from negative notify delay")
	}
}

func TestSpawnWhileRunningPanics(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		k.Spawn("q", func(*Proc) {})
	})
	if err := k.Run(Forever); err == nil {
		t.Fatal("expected error from spawn during run")
	}
}

func TestStatsCountActivationsAndEvents(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	k.Spawn("a", script(
		func(p *Proc) { p.After(1) },
		func(p *Proc) { p.After(1) },
		func(p *Proc) { ev.Notify() },
	))
	k.Spawn("b", script(
		func(p *Proc) { p.On(ev) },
		func(p *Proc) {},
	))
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	// Activations: a starts, b starts, a wakes twice, b wakes once = 5.
	if s.Activations != 5 {
		t.Fatalf("Activations = %d, want 5", s.Activations)
	}
	// Timed events: 2 initial wakes + 2 waits = 4.
	if s.TimedEvents != 4 {
		t.Fatalf("TimedEvents = %d, want 4", s.TimedEvents)
	}
	if s.DeltaNotifies != 1 {
		t.Fatalf("DeltaNotifies = %d, want 1", s.DeltaNotifies)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() ([]string, Stats) {
		k := New()
		ev := k.NewEvent("sync")
		var log []string
		prod, cons := 0, 0
		k.Spawn("prod", func(p *Proc) {
			if p.Now() > 0 {
				log = append(log, fmt.Sprintf("prod%d@%d", prod, p.Now()))
				ev.Notify()
				prod++
			}
			if prod < 5 {
				p.After(3)
			}
		})
		k.Spawn("cons", func(p *Proc) {
			if p.Now() > 0 {
				log = append(log, fmt.Sprintf("cons%d@%d", cons, p.Now()))
				cons++
			}
			if cons < 5 {
				p.On(ev)
			}
		})
		if err := k.Run(Forever); err != nil {
			t.Fatal(err)
		}
		return log, k.Stats()
	}
	l1, s1 := run()
	l2, s2 := run()
	if len(l1) != 10 {
		t.Fatalf("log = %v, want 5 productions and 5 consumptions", l1)
	}
	if strings.Join(l1, ";") != strings.Join(l2, ";") {
		t.Fatalf("nondeterministic logs:\n%v\n%v", l1, l2)
	}
	if s1 != s2 {
		t.Fatalf("nondeterministic stats: %+v vs %+v", s1, s2)
	}
}

func TestSimultaneousEventsFIFOOrder(t *testing.T) {
	k := New()
	var order []string
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), script(
			func(p *Proc) { p.After(10) },
			func(p *Proc) { order = append(order, p.Name()) },
		))
	}
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "p0,p1,p2,p3" {
		t.Fatalf("order = %q", got)
	}
}

func TestRunReentryFails(t *testing.T) {
	k := New()
	var inner error
	k.Spawn("p", func(p *Proc) {
		inner = k.Run(Forever)
	})
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if inner == nil {
		t.Fatal("expected reentry error")
	}
}

func TestEventNames(t *testing.T) {
	k := New()
	ev := k.NewEvent("mychannel")
	if ev.Name() != "mychannel" {
		t.Fatalf("Name = %q", ev.Name())
	}
	p := k.Spawn("worker", func(p *Proc) {})
	if p.Name() != "worker" {
		t.Fatalf("proc name = %q", p.Name())
	}
	if p.Kernel() != k {
		t.Fatal("Kernel() mismatch")
	}
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
}

func TestStatsEvents(t *testing.T) {
	s := Stats{Activations: 4, TimedEvents: 9, DeltaNotifies: 8, FinalTime: 100}
	if s.Events() != 17 {
		t.Fatalf("Events = %d, want 17", s.Events())
	}
}

// A handler has no stack to unwind: a process blocked when Run returns
// is over, holding no goroutine, and an event notified after Run
// returned calls none of its waiters.
func TestBlockedProcessesAreTerminated(t *testing.T) {
	before := runtime.NumGoroutine()
	k := New()
	ev := k.NewEvent("never")
	calls := 0
	k.Spawn("stuck-event", func(p *Proc) { calls++; p.On(ev) })
	k.Spawn("stuck-wait", script(
		func(p *Proc) { calls++; p.After(5) },
		func(p *Proc) { calls++; p.On(ev) },
		func(p *Proc) { calls++ },
	))
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	ev.Notify()
	runtime.Gosched()
	if calls != 3 {
		t.Fatalf("calls = %d after Run returned, want 3", calls)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Run, want at most %d", got, before)
	}
}

// Nothing calls a handler once Run has returned, and no run leaves a
// goroutine behind, whether the queue drained, the limit cut the run, a
// handler failed, a process stayed blocked, or a process never started.
func TestRunLeavesNoGoroutinesBehind(t *testing.T) {
	cases := []struct {
		name    string
		limit   Time
		wantErr bool
		build   func(k *Kernel, ev *Event, calls *int)
	}{
		{"drained", Forever, false, func(k *Kernel, ev *Event, calls *int) {
			k.Spawn("a", script(func(p *Proc) { *calls++; p.After(3) }, func(p *Proc) { *calls++ }))
			k.Spawn("b", func(p *Proc) { *calls++ })
		}},
		{"time-limit", 25, false, func(k *Kernel, ev *Event, calls *int) {
			k.Spawn("spin", every(10, func(*Proc) { *calls++ }))
		}},
		{"panic", Forever, true, func(k *Kernel, ev *Event, calls *int) {
			k.Spawn("bad", script(func(p *Proc) { *calls++; p.After(1) }, func(p *Proc) { panic("boom") }))
			k.Spawn("spin", every(1, func(*Proc) { *calls++ }))
		}},
		{"blocked-forever", Forever, false, func(k *Kernel, ev *Event, calls *int) {
			k.Spawn("stuck", func(p *Proc) { *calls++; p.On(ev) })
		}},
		{"never-activated", -1, false, func(k *Kernel, ev *Event, calls *int) {
			k.Spawn("idle", func(p *Proc) { panic("process after the limit ran") })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Goroutines of earlier tests may still be exiting, so the
			// count may drop below the start but must never exceed it.
			before := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				k := New()
				ev := k.NewEvent("never")
				calls := 0
				c.build(k, ev, &calls)
				if err := k.Run(c.limit); (err != nil) != c.wantErr {
					t.Fatalf("kernel %d: Run error = %v, want error %v", i, err, c.wantErr)
				}
				at := calls
				ev.Notify()
				runtime.Gosched()
				if calls != at {
					t.Fatalf("kernel %d: %d handler calls after Run returned", i, calls-at)
				}
				if got := runtime.NumGoroutine(); got > before {
					t.Fatalf("kernel %d: %d goroutines after Run, want at most %d", i, got, before)
				}
			}
		})
	}
}

func TestProcessMayBlockOnGoPrimitives(t *testing.T) {
	// A handler may block outside the kernel; the kernel simply waits for
	// the call to return.
	k := New()
	ch := make(chan int)
	go func() {
		for i := 1; i <= 3; i++ {
			ch <- i
		}
	}()
	sum, n := 0, 0
	k.Spawn("reader", func(p *Proc) {
		if n == 3 {
			return
		}
		sum += <-ch
		n++
		p.After(1)
	})
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if sum != 6 || k.Now() != 3 {
		t.Fatalf("sum = %d at %d, want 6 at 3", sum, k.Now())
	}
}

func TestSteadyWaitDoesNotAllocate(t *testing.T) {
	// Allocations of a run are set-up only: a process that waits 10,000
	// times allocates no more than one that waits 10 times.
	runAllocs := func(waits int) float64 {
		return testing.AllocsPerRun(20, func() {
			k := New()
			n := 0
			k.Spawn("spin", func(p *Proc) {
				if n < waits {
					n++
					p.After(1)
				}
			})
			if err := k.Run(Forever); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := runAllocs(10), runAllocs(10_000); long != short {
		t.Fatalf("%v allocations for 10,000 waits, %v for 10; want equal", long, short)
	}
}

// maxSpawnAllocs bounds the allocations of one Spawn: the Proc, with the
// event queue's growth amortized over the spawns. Spawn is paid per
// process per kernel, and a sweep builds a kernel per point.
const maxSpawnAllocs = 1

func TestSpawnAllocations(t *testing.T) {
	k := New()
	allocs := testing.AllocsPerRun(100, func() { k.Spawn("p", func(*Proc) {}) })
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if allocs > maxSpawnAllocs {
		t.Fatalf("%v allocations per Spawn, want at most %d", allocs, maxSpawnAllocs)
	}
	t.Logf("%v allocations per Spawn", allocs)
}
