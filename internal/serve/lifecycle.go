package serve

// The sweep-job lifecycle shared by both front ends: this package's
// Server (chunks evaluated in process) and the internal/shard
// Coordinator (chunks dispatched across a fleet). Both run SweepJob,
// keep their jobs in a JobTable, and serve list, get, cancel, the SSE
// event stream and the NDJSON results stream through the table's
// handlers — the state machine, retention and wire behaviour exist
// once.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// JobState is the lifecycle of a sweep job. Transitions:
//
//	queued ──► running ──► done | failed | cancelled
//	   │                            ▲
//	   └────────────────────────────┘  (cancelled while queued)
//
// A cancel request against a running job shows up as the transient wire
// state "cancelling" until the job's runner observes its context and
// settles the terminal state.
type JobState int

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
	JobCancelled
)

func (st JobState) String() string {
	switch st {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (st JobState) Terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCancelled
}

// Lifecycle is the state machine SweepJob embeds. The embedded mutex
// guards the lifecycle's mutable fields and those of the job alike. Watchers (the SSE and NDJSON streams) wait on a
// change channel that is closed and replaced on every mutation — a
// broadcast that can neither drop an event nor block, because watchers
// re-read the state they care about under the lock instead of
// receiving deltas.
type Lifecycle struct {
	sync.Mutex

	// Fixed before the job is shared; JobTable.Add assigns ID.
	ID       string
	Engine   string
	Scenario string
	Total    int
	Created  time.Time
	// OnSettle, when non-nil, observes the terminal state and the settle
	// instant exactly once, under the lock, wherever the job settles. It
	// must not call back into the job.
	OnSettle func(st JobState, errMsg string, finished time.Time)

	state           JobState
	cancelRequested bool
	cancel          context.CancelFunc // set while running
	done            int
	started         time.Time
	finished        time.Time
	errMsg          string
	changed         chan struct{} // nil until someone watches
	rendered        *JobResult    // memoized terminal rendering
}

// bumpLocked wakes every watcher.
func (l *Lifecycle) bumpLocked() {
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
}

// changedLocked returns a channel that is closed on the job's next
// change.
func (l *Lifecycle) changedLocked() <-chan struct{} {
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return l.changed
}

// advanceLocked records point progress. done only grows: a settled job
// must report done == total, and progress bars must not move backwards.
func (l *Lifecycle) advanceLocked(done int) {
	if done <= l.done {
		return
	}
	l.done = done
	l.bumpLocked()
}

// Start moves a queued job to running; cancel aborts the run when a
// cancel is requested. It reports false when the job must not run:
// it is no longer queued (a queued job settles on cancel).
func (l *Lifecycle) Start(cancel context.CancelFunc, now time.Time) bool {
	l.Lock()
	defer l.Unlock()
	if l.state != JobQueued {
		return false
	}
	l.state = JobRunning
	l.started = now
	l.cancel = cancel
	l.bumpLocked()
	return true
}

// Settle moves the job into a terminal state and runs OnSettle. An
// already settled job is left alone.
func (l *Lifecycle) Settle(st JobState, errMsg string, now time.Time) {
	l.Lock()
	defer l.Unlock()
	l.settleLocked(st, errMsg, now)
}

func (l *Lifecycle) settleLocked(st JobState, errMsg string, now time.Time) {
	if l.state.Terminal() {
		return
	}
	l.state, l.errMsg, l.finished = st, errMsg, now
	l.cancel = nil
	l.bumpLocked()
	if l.OnSettle != nil {
		l.OnSettle(st, errMsg, now)
	}
}

// requestCancel asks the job to stop. A queued job settles as cancelled
// at once; a running one has its context cancelled and settles when its
// runner returns. Terminal jobs report ok == false.
func (l *Lifecycle) requestCancel(now time.Time) (state string, ok bool) {
	l.Lock()
	defer l.Unlock()
	switch l.state {
	case JobQueued:
		l.settleLocked(JobCancelled, context.Canceled.Error(), now)
		return l.state.String(), true
	case JobRunning:
		l.cancelRequested = true
		if l.cancel != nil {
			l.cancel()
		}
		l.bumpLocked()
		return l.wireStateLocked(), true
	}
	return l.state.String(), false
}

// wireStateLocked renders the state for the API, including the
// transient "cancelling" view of a running job with a pending cancel.
func (l *Lifecycle) wireStateLocked() string {
	if l.state == JobRunning && l.cancelRequested {
		return "cancelling"
	}
	return l.state.String()
}

// Snapshot renders the lifecycle in its wire form.
func (l *Lifecycle) Snapshot() Job {
	l.Lock()
	defer l.Unlock()
	return l.snapshotLocked()
}

func (l *Lifecycle) snapshotLocked() Job {
	out := Job{
		ID:       l.ID,
		State:    l.wireStateLocked(),
		Engine:   l.Engine,
		Scenario: l.Scenario,
		Done:     l.done,
		Total:    l.Total,
		Created:  l.Created,
		Error:    l.errMsg,
	}
	if !l.started.IsZero() {
		t := l.started
		out.Started = &t
	}
	if !l.finished.IsZero() {
		t := l.finished
		out.Finished = &t
	}
	return out
}

// Submission failures the HTTP layer maps onto distinct status codes.
var (
	errQueueFull    = errors.New("job queue full")
	errShuttingDown = errors.New("server shutting down, no new jobs accepted")
)

// JobTable owns a front end's jobs: the id sequence, creation order,
// lookup and retention.
type JobTable struct {
	onEvict func(n int)
	// full wakes the janitor when Add takes the table past the job bound
	// by more than an eighth of it (at least one job), so that the jobs
	// retained between two ticks do not grow with the rate at which jobs
	// settle, while an eviction pass — and the store compaction it
	// triggers on the coordinator — still serves many submissions.
	full chan struct{}

	mu      sync.Mutex
	closed  bool
	seq     int64
	jobs    map[string]*SweepJob
	order   []string
	maxJobs int // the janitor's job bound; 0 while none runs
}

// newJobTable returns an empty table. onEvict, when non-nil, observes
// every eviction that dropped at least one job, after the table lock is
// released.
func newJobTable(onEvict func(n int)) *JobTable {
	return &JobTable{onEvict: onEvict, full: make(chan struct{}, 1), jobs: map[string]*SweepJob{}}
}

// Add assigns j the next id and registers it. admit, when non-nil, runs
// under the table lock with the id assigned; refusing it rejects the job
// unregistered, so a rejected job is never observable (the server
// enqueues for its worker pool here). A closed table rejects every job.
// The table lock is never held across a wait: admit must not block.
func (t *JobTable) Add(j *SweepJob, admit func(*SweepJob) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errShuttingDown
	}
	t.seq++
	j.ID = fmt.Sprintf("job-%06d", t.seq)
	if admit != nil && !admit(j) {
		return errQueueFull
	}
	t.registerLocked(j)
	if t.maxJobs > 0 && len(t.order) > t.maxJobs+max(1, t.maxJobs/8) {
		select {
		case t.full <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	return nil
}

// Restore registers a job recovered under its original id and advances
// the id sequence past it.
func (t *JobTable) Restore(j *SweepJob) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	if _, err := fmt.Sscanf(j.ID, "job-%d", &n); err == nil && n > t.seq {
		t.seq = n
	}
	t.registerLocked(j)
}

func (t *JobTable) registerLocked(j *SweepJob) {
	id := j.ID
	t.jobs[id] = j
	t.order = append(t.order, id)
}

// Close rejects every further Add. Serialized against Add: a job added
// before Close is visible to whatever the caller drains next.
func (t *JobTable) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// isClosed reports whether Close was called.
func (t *JobTable) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Get returns the job by id.
func (t *JobTable) Get(id string) (*SweepJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// List returns every job in creation order.
func (t *JobTable) List() []*SweepJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*SweepJob, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.jobs[id])
	}
	return out
}

// Len counts the jobs in the table.
func (t *JobTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

// Evict removes settled jobs: first everything past the TTL (measured
// from its finish time), then — still beyond maxJobs — the oldest
// settled jobs until the bound holds. Queued and running jobs are never
// evicted, so a max-jobs bound smaller than the live set is simply not
// yet enforceable. Returns how many jobs were dropped.
func (t *JobTable) Evict(now time.Time, ttl time.Duration, maxJobs int) int {
	t.mu.Lock()
	drop := map[string]bool{}
	var settled []string // still-kept settled jobs, creation order
	for _, id := range t.order {
		j := t.jobs[id]
		j.Lock()
		if j.state.Terminal() {
			if ttl > 0 && now.Sub(j.finished) >= ttl {
				drop[id] = true
			} else {
				settled = append(settled, id)
			}
		}
		j.Unlock()
	}
	if maxJobs > 0 {
		kept := len(t.order) - len(drop)
		for _, id := range settled {
			if kept <= maxJobs {
				break
			}
			drop[id] = true
			kept--
		}
	}
	order := t.order[:0]
	for _, id := range t.order {
		if drop[id] {
			delete(t.jobs, id)
			continue
		}
		order = append(order, id)
	}
	t.order = order
	t.mu.Unlock()
	if len(drop) > 0 && t.onEvict != nil {
		t.onEvict(len(drop))
	}
	return len(drop)
}

// janitor evicts on a ticker paced to a quarter of the TTL (clamped to
// 25ms..1s; 1s without a TTL), and whenever Add wakes it past maxJobs,
// until ctx ends.
func (t *JobTable) janitor(ctx context.Context, ttl time.Duration, maxJobs int) {
	interval := min(max(ttl/4, 25*time.Millisecond), time.Second)
	if ttl <= 0 {
		interval = time.Second
	}
	t.mu.Lock()
	t.maxJobs = maxJobs
	t.mu.Unlock()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			t.Evict(now, ttl, maxJobs)
		case <-t.full:
			t.Evict(time.Now(), ttl, maxJobs)
		}
	}
}

// Lookup returns the job named by the request's {id} path value,
// answering 404 job_not_found itself when there is none.
func (t *JobTable) Lookup(w http.ResponseWriter, r *http.Request) (*SweepJob, bool) {
	j, ok := t.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, CodeJobNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

// ServeList serves GET /v1/sweeps: every job, creation order.
func (t *JobTable) ServeList(w http.ResponseWriter, r *http.Request) {
	jobs := t.List()
	out := struct {
		Jobs []Job `json:"jobs"`
	}{Jobs: make([]Job, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.Snapshot())
	}
	WriteJSON(w, http.StatusOK, out)
}

// ServeGet serves GET /v1/sweeps/{id}: lifecycle plus, in terminal
// states, the sweep statistics and per-point results.
func (t *JobTable) ServeGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := t.Lookup(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Result())
	}
}

// ServeCancel serves DELETE /v1/sweeps/{id}: queued jobs settle as
// cancelled immediately, running jobs get their context cancelled and
// settle when their runner observes it (the response then reports the
// transient "cancelling" state); terminal jobs answer 409.
func (t *JobTable) ServeCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := t.Lookup(w, r)
	if !ok {
		return
	}
	st, ok := j.requestCancel(time.Now())
	if !ok {
		WriteError(w, http.StatusConflict, CodeJobTerminal, "job %s already settled as %q", j.ID, st)
		return
	}
	WriteJSON(w, http.StatusAccepted, j.Snapshot())
}

// progressData is the payload of a "progress" event.
type progressData struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// ServeEvents serves GET /v1/sweeps/{id}/events as a server-sent event
// stream: one initial "state" snapshot, a "state" event on every
// lifecycle change, "progress" events with absolute done/total counts as
// points finish, and — after the latest progress — the terminal "state"
// event, then EOF. Every emission re-reads a consistent snapshot, so a
// slow consumer skips intermediate counts but never sees them out of
// order and never misses the terminal state. writeTimeout bounds every
// single write (0: unbounded); a closed shutdown channel ends the stream
// early (nil: never).
func (t *JobTable) ServeEvents(w http.ResponseWriter, r *http.Request, writeTimeout time.Duration, shutdown <-chan struct{}) {
	j, ok := t.Lookup(w, r)
	if !ok {
		return
	}
	observe := func() (snap Job, terminal bool, changed <-chan struct{}) {
		j.Lock()
		defer j.Unlock()
		if terminal = j.state.Terminal(); !terminal {
			changed = j.changedLocked()
		}
		return j.snapshotLocked(), terminal, changed
	}
	// Subscribe before the headers go out: once the client sees the
	// response, no change can slip past the first snapshot.
	snap, terminal, changed := observe()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()

	emit := func(name string, data any) bool {
		raw, err := json.Marshal(data)
		if err != nil {
			return false
		}
		// A stalled consumer fails the write at the deadline instead of
		// pinning this goroutine; SetWriteDeadline errors (recorders,
		// exotic transports) leave the stream unbounded rather than dead.
		if writeTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, raw); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	if !emit("state", snap) || terminal {
		return
	}
	for {
		last := snap
		select {
		case <-r.Context().Done():
			return
		case <-shutdown:
			return
		case <-changed:
		}
		snap, terminal, changed = observe()
		if !terminal && snap.State != last.State && !emit("state", snap) {
			return
		}
		if snap.Done != last.Done && !emit("progress", progressData{snap.Done, snap.Total}) {
			return
		}
		if terminal {
			emit("state", snap)
			return
		}
	}
}

// ResultLine is one line of the GET /v1/sweeps/{id}/results NDJSON
// stream: either a point (Point set — one evaluated grid point, in
// arrival order) or the trailer (State set — the terminal state plus
// the job's statistics), which is always the last line.
type ResultLine struct {
	Point *ChunkPoint `json:"point,omitempty"`
	State string      `json:"state,omitempty"`
	Stats *SweepStats `json:"stats,omitempty"`
}

// ServeResults serves GET /v1/sweeps/{id}/results as an NDJSON stream:
// one line per evaluated point in arrival order — streamed while the
// job runs, so a client consumes partial results long before the grid
// finishes — terminated by a trailer line carrying the terminal state
// and statistics. Connecting to a finished job replays every recorded
// point, which is how results of jobs completed before a coordinator
// restart are consumed. writeTimeout bounds every single line and
// shutdown ends the stream early, as in ServeEvents.
func (t *JobTable) ServeResults(w http.ResponseWriter, r *http.Request, writeTimeout time.Duration, shutdown <-chan struct{}) {
	j, ok := t.Lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	// write encodes one line under a fresh deadline: a consumer that
	// stops reading gets the connection torn down instead of pinning
	// this goroutine and the job's arrival buffer forever, while a job
	// that idles between chunks — or settles long after its last point
	// — still gets its next line, the trailer included, out.
	write := func(line ResultLine) bool {
		if writeTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		return enc.Encode(line) == nil
	}

	streamed := 0
	for {
		points, st, changed := j.arrivedSince(streamed)
		for i := range points {
			if !write(ResultLine{Point: &points[i]}) {
				return
			}
		}
		streamed += len(points)
		if len(points) > 0 && rc.Flush() != nil {
			return
		}
		if st.Terminal() {
			if write(ResultLine{State: st.String(), Stats: j.Result().Stats}) {
				_ = rc.Flush()
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-shutdown:
			return
		case <-changed:
		}
	}
}
