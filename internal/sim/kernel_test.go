package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

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
	k.Spawn("p", func(p *Proc) {
		seen = append(seen, p.Now())
		p.Wait(10)
		seen = append(seen, p.Now())
		p.Wait(5)
		seen = append(seen, p.Now())
	})
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
	// A zero wait must let another runnable process execute in between.
	k := New()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Wait(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, ",")
	if got != "a1,b1,a2" {
		t.Fatalf("order = %q, want a1,b1,a2", got)
	}
}

func TestWaitUntil(t *testing.T) {
	k := New()
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.WaitUntil(42)
		at = p.Now()
		p.WaitUntil(10) // in the past: zero wait
		at = p.Now()
	})
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if at != 42 {
		t.Fatalf("time = %d, want 42", at)
	}
}

func TestEventNotifyWakesWaiters(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	var woke []string
	k.Spawn("w1", func(p *Proc) {
		p.WaitEvent(ev)
		woke = append(woke, fmt.Sprintf("w1@%d", p.Now()))
	})
	k.Spawn("w2", func(p *Proc) {
		p.WaitEvent(ev)
		woke = append(woke, fmt.Sprintf("w2@%d", p.Now()))
	})
	k.Spawn("n", func(p *Proc) {
		p.Wait(7)
		ev.Notify()
	})
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(woke, ",")
	if got != "w1@7,w2@7" {
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
	k.Spawn("w", func(p *Proc) {
		p.Wait(1) // register after the notify
		p.WaitEvent(ev)
		reached = true // must never run
	})
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
	k.Spawn("w", func(p *Proc) {
		p.WaitEvent(ev)
		t1 = p.Now()
		p.WaitEvent(ev2)
		t2 = p.Now()
	})
	k.Spawn("n", func(p *Proc) {
		ev.NotifyAfter(30)
		p.Wait(30)
		ev2.NotifyAt(50)
	})
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
	k.Spawn("w", func(p *Proc) {
		p.WaitEvent(ev)
		woke = p.Now()
	})
	k.Spawn("n", func(p *Proc) {
		p.Wait(20)
		ev.NotifyAt(5)
	})
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if woke != 20 {
		t.Fatalf("woke = %d, want 20", woke)
	}
}

func TestRunLimitStopsSimulation(t *testing.T) {
	k := New()
	steps := 0
	k.Spawn("p", func(p *Proc) {
		for {
			p.Wait(10)
			steps++
		}
	})
	if err := k.Run(35); err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("steps = %d, want 3", steps)
	}
	if k.Now() != 35 {
		t.Fatalf("final time = %d, want 35", k.Now())
	}
}

func TestBlockedProcessesAreTerminated(t *testing.T) {
	k := New()
	ev := k.NewEvent("never")
	cleaned := int32(0)
	k.Spawn("stuck-event", func(p *Proc) {
		defer atomic.AddInt32(&cleaned, 1)
		p.WaitEvent(ev)
	})
	k.Spawn("stuck-wait", func(p *Proc) {
		defer atomic.AddInt32(&cleaned, 1)
		p.Wait(5)
		p.WaitEvent(ev)
	})
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&cleaned); got != 2 {
		t.Fatalf("cleaned = %d, want 2 (deferred funcs must run on shutdown)", got)
	}
}

func TestProcessPanicBecomesError(t *testing.T) {
	k := New()
	k.Spawn("bad", func(p *Proc) {
		p.Wait(1)
		panic("boom")
	})
	k.Spawn("good", func(p *Proc) {
		for {
			p.Wait(1)
		}
	})
	err := k.Run(Forever)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v", err)
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) { p.Wait(-1) })
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
	k.Spawn("a", func(p *Proc) {
		p.Wait(1)
		p.Wait(1)
		ev.Notify()
	})
	k.Spawn("b", func(p *Proc) {
		p.WaitEvent(ev)
	})
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
		k.Spawn("prod", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Wait(3)
				log = append(log, fmt.Sprintf("prod%d@%d", i, p.Now()))
				ev.Notify()
			}
		})
		k.Spawn("cons", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.WaitEvent(ev)
				log = append(log, fmt.Sprintf("cons%d@%d", i, p.Now()))
			}
		})
		if err := k.Run(Forever); err != nil {
			t.Fatal(err)
		}
		return log, k.Stats()
	}
	l1, s1 := run()
	l2, s2 := run()
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
		name := fmt.Sprintf("p%d", i)
		k.Spawn(name, func(p *Proc) {
			p.Wait(10)
			order = append(order, p.Name())
		})
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
	var pname string
	p := k.Spawn("worker", func(p *Proc) {})
	pname = p.Name()
	if pname != "worker" {
		t.Fatalf("proc name = %q", pname)
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

func TestRunLeavesNoGoroutinesBehind(t *testing.T) {
	cases := []struct {
		name    string
		limit   Time
		wantErr bool
		build   func(k *Kernel)
	}{
		{"drained", Forever, false, func(k *Kernel) {
			k.Spawn("a", func(p *Proc) { p.Wait(3) })
			k.Spawn("b", func(p *Proc) {})
		}},
		{"time-limit", 25, false, func(k *Kernel) {
			k.Spawn("spin", func(p *Proc) {
				for {
					p.Wait(10)
				}
			})
		}},
		{"panic", Forever, true, func(k *Kernel) {
			k.Spawn("bad", func(p *Proc) { p.Wait(1); panic("boom") })
			k.Spawn("spin", func(p *Proc) {
				for {
					p.Wait(1)
				}
			})
		}},
		{"blocked-forever", Forever, false, func(k *Kernel) {
			never := k.NewEvent("never")
			k.Spawn("stuck", func(p *Proc) { p.WaitEvent(never) })
		}},
		{"never-activated", -1, false, func(k *Kernel) {
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
				c.build(k)
				if err := k.Run(c.limit); (err != nil) != c.wantErr {
					t.Fatalf("kernel %d: Run error = %v, want error %v", i, err, c.wantErr)
				}
				if got := runtime.NumGoroutine(); got > before {
					t.Fatalf("kernel %d: %d goroutines after Run, want at most %d", i, got, before)
				}
			}
		})
	}
}

func TestProcessMayBlockOnGoPrimitives(t *testing.T) {
	// A body may block outside the kernel (core.RunBatch lanes wait on a
	// sync.Cond); the kernel simply waits for it to park again.
	k := New()
	ch := make(chan int)
	go func() {
		for i := 1; i <= 3; i++ {
			ch <- i
		}
	}()
	sum := 0
	k.Spawn("reader", func(p *Proc) {
		for i := 0; i < 3; i++ {
			sum += <-ch
			p.Wait(1)
		}
	})
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if sum != 6 || k.Now() != 3 {
		t.Fatalf("sum = %d at %d, want 6 at 3", sum, k.Now())
	}
}

func TestSteadyWaitDoesNotAllocate(t *testing.T) {
	k := New()
	var allocs float64
	k.Spawn("spin", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { p.Wait(1) })
	})
	if err := k.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per Wait, want 0", allocs)
	}
}

// maxSpawnAllocs bounds the allocations of one Spawn: the Proc, the
// coroutine (iter.Pull state, its goroutine and closures) and the body
// wrapper, 13 with Go 1.24. Spawn is paid per process per kernel, and
// a sweep builds a kernel per point.
const maxSpawnAllocs = 16

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
