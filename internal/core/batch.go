package core

import (
	"fmt"
	"sync"

	"dyncomp/internal/derive"
	"dyncomp/internal/maxplus"
	"dyncomp/internal/observe"
	"dyncomp/internal/sim"
	"dyncomp/internal/tdg"
)

// BatchOptions configures a batched equivalent-model run.
type BatchOptions struct {
	// Traces, when non-nil, holds one trace per lane; a nil entry skips
	// recording for that lane.
	Traces []*observe.Trace
	// Limit bounds each lane's simulation time; zero runs to completion.
	Limit sim.Time
	// IterLimit, when positive, bounds every lane to iterations
	// [0, IterLimit).
	IterLimit int
}

// RunBatch simulates N re-bound equivalent models in lockstep over one
// shared tdg.BatchEvaluator: each lane keeps its own simulation kernel,
// boundary processes and pooled engine state — bit-exact against a
// scalar Run of the same lane — but every ComputeInstant is one batched
// pass computing iteration k for all lanes at once.
//
// The lanes must be weight-lane siblings of one compiled structure
// (derive.RebindBatch / Cache.DeriveBatch produce exactly that) and must
// be distinct Results: each lane's weight closures memoize through their
// own ExecInfos, which the lockstep coordinator relies on for
// race-freedom. A structural mismatch fails the batch wholesale (third
// return) so callers can fall back to scalar runs; per-lane simulation
// failures land in the error slice while the remaining lanes complete
// normally.
func RunBatch(lanes []*derive.Result, opts BatchOptions) ([]*Result, []error, error) {
	L := len(lanes)
	if L == 0 {
		return nil, nil, fmt.Errorf("core: RunBatch with no lanes")
	}
	if opts.Traces != nil && len(opts.Traces) != L {
		return nil, nil, fmt.Errorf("core: %d traces for %d lanes", len(opts.Traces), L)
	}
	progs := make([]*tdg.Program, L)
	iters := make([]int, L)
	for l, res := range lanes {
		progs[l] = res.Program()
		iter, err := iterations(res)
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch lane %d: %w", l, err)
		}
		if opts.IterLimit > 0 && opts.IterLimit < iter {
			iter = opts.IterLimit
		}
		iters[l] = iter
	}
	be, err := tdg.NewBatchEvaluator(progs)
	if err != nil {
		return nil, nil, err
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = sim.Forever
	}

	bc := newBatchCoord(be)
	results := make([]*Result, L)
	errs := make([]error, L)
	var wg sync.WaitGroup
	for l := range lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			// Retire the lane no matter how it exits: a lane stuck as
			// "active" would park every other lane at the barrier forever.
			defer bc.finish(l)
			defer func() {
				if r := recover(); r != nil {
					errs[l] = fmt.Errorf("core: batch lane %d panicked: %v", l, r)
				}
			}()
			var trace *observe.Trace
			if opts.Traces != nil {
				trace = opts.Traces[l]
			}
			lv := &laneView{bc: bc, lane: l}
			k := sim.New()
			eng := engineFor(lanes[l], iters[l], limit, k, lv, trace)
			eng.build()
			runErr := k.Run(limit)
			st := k.Stats()
			st.FinalTime = eng.finalTime()
			recycle(eng)
			if runErr != nil {
				errs[l] = runErr
				return
			}
			results[l] = &Result{Stats: st, Trace: trace, Iterations: lv.steps}
		}(l)
	}
	wg.Wait()
	be.Release()
	return results, errs, nil
}

// batchCoord synchronizes the lane goroutines on one BatchEvaluator:
// each lane's Step blocks until every still-active lane has supplied its
// inputs for the current iteration; the last arrival executes the
// batched step and wakes the rest.
//
// The lockstep is deadlock-free because lanes only couple at the
// barrier: a lane's kernel advances exactly as its scalar run would
// (sources, gates and rendezvous are all lane-local), so every active
// lane reaches every iteration — or retires through finish, which
// re-opens the barrier. A lane blocked here keeps its kernel paused
// (sim.Kernel runs one process at a time), so kernel shutdown can never
// race the barrier.
type batchCoord struct {
	mu   sync.Mutex
	cond *sync.Cond
	be   *tdg.BatchEvaluator

	u    []maxplus.T // lane-strided input slab of the pending iteration
	outs []maxplus.T // lane-strided outputs of the last batched step
	err  error       // sticky batched-step failure, fails every lane

	gen     uint64 // bumped per batched step; waiters watch it change
	active  int    // lanes not yet retired
	waiting int    // lanes blocked at the barrier
}

func newBatchCoord(be *tdg.BatchEvaluator) *batchCoord {
	bc := &batchCoord{
		be:     be,
		u:      make([]maxplus.T, len(be.Graph().Inputs())*be.Lanes()),
		active: be.Lanes(),
	}
	bc.cond = sync.NewCond(&bc.mu)
	return bc
}

// stepLocked runs one batched step. Requires bc.mu held; every other
// active lane is blocked at the barrier (and its kernel therefore
// paused), so the evaluator — including every lane's weight closures —
// is exclusively ours.
func (bc *batchCoord) stepLocked() {
	bc.waiting = 0
	outs, err := bc.be.Step(bc.u)
	if err != nil && bc.err == nil {
		bc.err = err
	}
	bc.outs = outs
	bc.gen++
	bc.cond.Broadcast()
}

// finish retires a lane: its weights stop being resolved and the barrier
// no longer waits for it. If the remaining active lanes are already all
// parked, the retirement itself completes the pending step.
func (bc *batchCoord) finish(lane int) {
	bc.mu.Lock()
	bc.be.Disable(lane)
	bc.active--
	if bc.active > 0 && bc.waiting >= bc.active {
		bc.stepLocked()
	}
	bc.mu.Unlock()
}

// laneView adapts one lane of the batch to the engine's stepper surface.
type laneView struct {
	bc    *batchCoord
	lane  int
	steps int         // iterations this lane has stepped
	out   []maxplus.T // deinterleaved outputs, reused per Step
}

func (lv *laneView) K() int { return lv.bc.be.K() }

func (lv *laneView) Step(u []maxplus.T) ([]maxplus.T, error) {
	bc := lv.bc
	L := bc.be.Lanes()
	bc.mu.Lock()
	if bc.err != nil {
		err := bc.err
		bc.mu.Unlock()
		return nil, err
	}
	if len(u)*L != len(bc.u) {
		bc.mu.Unlock()
		return nil, fmt.Errorf("core: batch lane %d supplied %d inputs, want %d", lv.lane, len(u), len(bc.u)/L)
	}
	for i, v := range u {
		bc.u[i*L+lv.lane] = v
	}
	gen := bc.gen
	bc.waiting++
	if bc.waiting >= bc.active {
		bc.stepLocked()
	} else {
		for bc.gen == gen && bc.err == nil {
			bc.cond.Wait()
		}
	}
	if err := bc.err; err != nil {
		bc.mu.Unlock()
		return nil, err
	}
	if lv.out == nil {
		lv.out = make([]maxplus.T, len(bc.outs)/L)
	}
	for j := range lv.out {
		lv.out[j] = bc.outs[j*L+lv.lane]
	}
	bc.mu.Unlock()
	lv.steps++
	return lv.out, nil
}

func (lv *laneView) PeekDelayed(arcs []tdg.Arc, k int) (maxplus.T, error) {
	// Reads settled ring history and the lane's own weight closures: safe
	// between barriers, concurrent with other lanes doing the same. The
	// next batched step cannot start until this lane re-enters Step.
	return lv.bc.be.LanePeekDelayed(lv.lane, arcs, k)
}

func (lv *laneView) ValuesInto(dst []maxplus.T) {
	lv.bc.be.LaneValuesInto(lv.lane, dst)
}
