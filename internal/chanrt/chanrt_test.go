package chanrt

import (
	"testing"

	"dyncomp/internal/model"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
)

// outcome is what one step of a test process did.
type outcome int

const (
	next    outcome = iota // completed: go on
	slept                  // completed, and armed a wait
	blocked                // armed: run the step again when woken
)

// steps returns a handler running its steps in order.
func steps(ss ...func(p *sim.Proc) outcome) func(p *sim.Proc) {
	pc := 0
	return func(p *sim.Proc) {
		for pc < len(ss) {
			o := ss[pc](p)
			if o != blocked {
				pc++
			}
			if o != next {
				return
			}
		}
	}
}

func wait(d sim.Time) func(p *sim.Proc) outcome {
	return func(p *sim.Proc) outcome { p.After(d); return slept }
}

func write(ch RT, tok model.Token) func(p *sim.Proc) outcome {
	return func(p *sim.Proc) outcome {
		if ch.Write(p, tok) {
			return next
		}
		return blocked
	}
}

// read stores the token read into *got and the writer's instant into
// *wrote, either of which may be nil.
func read(ch RT, got *model.Token, wrote *sim.Time) func(p *sim.Proc) outcome {
	return func(p *sim.Proc) outcome {
		tok, at, ok := ch.Read(p)
		if !ok {
			return blocked
		}
		if got != nil {
			*got = tok
		}
		if wrote != nil {
			*wrote = at
		}
		return next
	}
}

// now stores the current time into *at.
func now(at *sim.Time) func(p *sim.Proc) outcome {
	return func(p *sim.Proc) outcome { *at = p.Now(); return next }
}

// repeat runs the steps of mk(i) for i in [0, n).
func repeat(n int, mk func(i int) []func(p *sim.Proc) outcome) []func(p *sim.Proc) outcome {
	var ss []func(p *sim.Proc) outcome
	for i := 0; i < n; i++ {
		ss = append(ss, mk(i)...)
	}
	return ss
}

func TestRendezvousWriterFirst(t *testing.T) {
	k := sim.New()
	tr := observe.NewTrace("t")
	ch := NewRV(k, &model.Channel{Name: "M"}, tr)
	var got model.Token
	var readAt, writeDone, offered sim.Time
	k.Spawn("writer", steps(wait(5), write(ch, model.Token{K: 1, Size: 42}), now(&writeDone)))
	k.Spawn("reader", steps(wait(20), read(ch, &got, &offered), now(&readAt)))
	if err := k.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if got.Size != 42 {
		t.Fatalf("token = %+v", got)
	}
	// Transfer at max(5, 20) = 20; the blocked writer resumes then. The
	// reader learns the writer offered at 5.
	if readAt != 20 || writeDone != 20 || offered != 5 {
		t.Fatalf("readAt=%d writeDone=%d offered=%d, want 20/20/5", readAt, writeDone, offered)
	}
	xs := tr.Instants("M")
	if len(xs) != 1 || xs[0] != 20 {
		t.Fatalf("instants = %v", xs)
	}
}

func TestRendezvousReaderFirst(t *testing.T) {
	k := sim.New()
	tr := observe.NewTrace("t")
	ch := NewRV(k, &model.Channel{Name: "M"}, tr)
	var readAt, offered sim.Time
	var got model.Token
	k.Spawn("reader", steps(read(ch, &got, &offered), now(&readAt)))
	k.Spawn("writer", steps(wait(7), write(ch, model.Token{K: 3})))
	if err := k.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if readAt != 7 || offered != 7 || got.K != 3 {
		t.Fatalf("readAt = %d, offered = %d, token %+v; want 7, 7, K 3", readAt, offered, got)
	}
}

func TestRendezvousSequence(t *testing.T) {
	k := sim.New()
	tr := observe.NewTrace("t")
	ch := NewRV(k, &model.Channel{Name: "M"}, tr)
	const n = 50
	k.Spawn("writer", steps(repeat(n, func(i int) []func(p *sim.Proc) outcome {
		return []func(p *sim.Proc) outcome{wait(3), write(ch, model.Token{K: i})}
	})...))
	seen := make([]model.Token, n)
	k.Spawn("reader", steps(repeat(n, func(i int) []func(p *sim.Proc) outcome {
		return []func(p *sim.Proc) outcome{wait(5), read(ch, &seen[i], nil)}
	})...))
	if err := k.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v.K != i {
			t.Fatalf("token order broken at %d: %d", i, v.K)
		}
	}
	// Reader is the slow side: transfers every 5 ticks.
	xs := tr.Instants("M")
	if len(xs) != n {
		t.Fatalf("%d transfers, want %d", len(xs), n)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i]-xs[i-1] != 5 {
			t.Fatalf("transfer spacing %v at %d", xs[i]-xs[i-1], i)
		}
	}
}

func TestFIFOBuffering(t *testing.T) {
	k := sim.New()
	tr := observe.NewTrace("t")
	ch := NewFIFO(k, &model.Channel{Name: "F", Kind: model.FIFO, Capacity: 2}, tr)
	writeTimes := make([]sim.Time, 4)
	k.Spawn("writer", steps(repeat(4, func(i int) []func(p *sim.Proc) outcome {
		return []func(p *sim.Proc) outcome{write(ch, model.Token{K: i}), now(&writeTimes[i])}
	})...))
	stamps := make([]sim.Time, 4)
	k.Spawn("reader", steps(repeat(4, func(i int) []func(p *sim.Proc) outcome {
		return []func(p *sim.Proc) outcome{wait(10), read(ch, nil, &stamps[i])}
	})...))
	if err := k.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	// First two writes immediate; third waits for the first read (t=10),
	// fourth for the second (t=20). Each read returns its token's write
	// instant.
	want := []sim.Time{0, 0, 10, 20}
	for i, w := range want {
		if writeTimes[i] != w || stamps[i] != w {
			t.Fatalf("write %d at %d, read stamp %d, want %d (all: %v, %v)", i, writeTimes[i], stamps[i], w, writeTimes, stamps)
		}
	}
	// Trace labels.
	if len(tr.Instants("F.w")) != 4 || len(tr.Instants("F.r")) != 4 {
		t.Fatalf("labels: %v", tr.Labels())
	}
}

// A read returns the instant its token was written, whether the reader
// waited on an empty FIFO or the writer waited on a full one.
func TestFIFOReadReturnsWriteInstant(t *testing.T) {
	k := sim.New()
	ch := NewFIFO(k, &model.Channel{Name: "F", Kind: model.FIFO, Capacity: 1}, nil)
	var got [3]model.Token
	var stamps, readAt [3]sim.Time
	// Token 0: the reader blocks on the empty FIFO from 0; written at 4.
	// Token 1: written at 4 right after token 0 is read, into a free
	// slot. Token 2: the writer blocks on the full FIFO from 4 and
	// writes when the reader takes token 1 at 34.
	k.Spawn("reader", steps(
		read(ch, &got[0], &stamps[0]), now(&readAt[0]),
		wait(30), read(ch, &got[1], &stamps[1]), now(&readAt[1]),
		wait(10), read(ch, &got[2], &stamps[2]), now(&readAt[2]),
	))
	k.Spawn("writer", steps(
		wait(4), write(ch, model.Token{K: 0}),
		wait(0), write(ch, model.Token{K: 1}),
		write(ch, model.Token{K: 2}),
	))
	if err := k.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	wantStamps, wantRead := [3]sim.Time{4, 4, 34}, [3]sim.Time{4, 34, 44}
	for i := range got {
		if got[i].K != i || stamps[i] != wantStamps[i] || readAt[i] != wantRead[i] {
			t.Fatalf("read %d: token %d written at %d, read at %d; want token %d written at %d, read at %d",
				i, got[i].K, stamps[i], readAt[i], i, wantStamps[i], wantRead[i])
		}
	}
}

func TestFIFOReaderBlocksWhenEmpty(t *testing.T) {
	k := sim.New()
	ch := NewFIFO(k, &model.Channel{Name: "F", Kind: model.FIFO, Capacity: 4}, nil)
	var readAt sim.Time
	k.Spawn("reader", steps(read(ch, nil, nil), now(&readAt)))
	k.Spawn("writer", steps(wait(33), write(ch, model.Token{})))
	if err := k.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if readAt != 33 {
		t.Fatalf("readAt = %d", readAt)
	}
}

func TestNewSelectsProtocol(t *testing.T) {
	k := sim.New()
	if _, ok := New(k, &model.Channel{Name: "a", Kind: model.Rendezvous}, nil).(*RV); !ok {
		t.Fatal("expected RV")
	}
	if _, ok := New(k, &model.Channel{Name: "b", Kind: model.FIFO, Capacity: 1}, nil).(*FIFO); !ok {
		t.Fatal("expected FIFO")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestNilTraceRecordsNothing(t *testing.T) {
	k := sim.New()
	ch := NewRV(k, &model.Channel{Name: "M"}, nil)
	k.Spawn("w", steps(write(ch, model.Token{})))
	k.Spawn("r", steps(read(ch, nil, nil)))
	if err := k.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
}
