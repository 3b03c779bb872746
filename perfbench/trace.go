package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int64
	Parent int64 // 0: a root span (one op)
	Op     int64 // the root span of the op that caused it
	Name   string
	Tag    string // optional case label, e.g. the scenario
	Start  time.Time
	End    time.Time
}

// recorder keeps the spans of a traced phase in memory.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// opTrace is the handle one op records its spans through. A nil
// *opTrace records nothing, so untraced code paths can share calls.
type opTrace struct {
	rec *recorder
	op  int64
}

// root records the op's own span.
func (t *opTrace) root(start, end time.Time) {
	if t == nil {
		return
	}
	t.rec.add(span{ID: t.op, Op: t.op, Name: "op", Start: start, End: end})
}

// span records [start, end) as a child of parent (0: the op) and
// returns its ID.
func (t *opTrace) span(name, tag string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if parent == 0 {
		parent = t.op
	}
	id := t.rec.newID()
	t.rec.add(span{ID: id, Parent: parent, Op: t.op, Name: name, Tag: tag, Start: start, End: end})
	return id
}

// hop allocates the span of a request that crosses an HTTP hop and
// returns its ID with the headers carrying it; record the span with
// record once the request completes.
func (t *opTrace) hop(kind string) (int64, http.Header) {
	if t == nil {
		return 0, nil
	}
	id := t.rec.newID()
	hdr := http.Header{}
	setSpanHeaders(hdr, t.op, id)
	hdr.Set(hdrKind, kind)
	return id, hdr
}

// record records [start, end) under an ID from hop, as a child of the
// op.
func (t *opTrace) record(id int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.rec.add(span{ID: id, Parent: t.op, Op: t.op, Name: name, Start: start, End: end})
}

// timed runs fn and records it as a direct child of the op.
func (t *opTrace) timed(name, tag string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.span(name, tag, 0, start, time.Now())
	return err
}

// Spans cross an HTTP hop as two headers: the op and the span the
// request was issued under. Middleware on the receiving handler parents
// its span there.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
)

func setSpanHeaders(h http.Header, op, parent int64) {
	h.Set(hdrOp, strconv.FormatInt(op, 10))
	h.Set(hdrParent, strconv.FormatInt(parent, 10))
}

func spanHeaders(h http.Header) (op, parent int64) {
	op, _ = strconv.ParseInt(h.Get(hdrOp), 10, 64)
	parent, _ = strconv.ParseInt(h.Get(hdrParent), 10, 64)
	return op, parent
}

// layerTime aggregates the spans of one name (and tag).
type layerTime struct {
	n    int
	self time.Duration // summed self time
	wall time.Duration // summed duration
}

func (l layerTime) meanSelf() time.Duration {
	if l.n == 0 {
		return 0
	}
	return l.self / time.Duration(l.n)
}

func (l layerTime) meanWall() time.Duration {
	if l.n == 0 {
		return 0
	}
	return l.wall / time.Duration(l.n)
}

// selfTimes computes each span's self time — its duration minus the
// part of it covered by its children — and sums them per name and per
// name/tag ("name" and "name|tag" keys).
func selfTimes(spans []span) map[string]layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		d := s.End.Sub(s.Start)
		self := d - covered(s, children[s.ID])
		keys := []string{s.Name}
		if s.Tag != "" {
			keys = append(keys, s.Name+"|"+s.Tag)
		}
		for _, k := range keys {
			l := out[k]
			l.n++
			l.self += self
			l.wall += d
			out[k] = l
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's. Children of one span may overlap when they
// run concurrently.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && !ivs[i].a.After(b); i++ {
			if ivs[i].b.After(b) {
				b = ivs[i].b
			}
		}
		total += b.Sub(a)
	}
	return total
}

// writeFile writes the spans as NDJSON, times in nanoseconds since the
// recorder was created.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		ID      int64  `json:"id"`
		Parent  int64  `json:"parent"`
		Op      int64  `json:"op"`
		Name    string `json:"name"`
		Tag     string `json:"tag,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for _, s := range r.snapshot() {
		if err := enc.Encode(line{s.ID, s.Parent, s.Op, s.Name, s.Tag,
			s.Start.Sub(r.t0).Nanoseconds(), s.End.Sub(r.t0).Nanoseconds()}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
