package model

import (
	"errors"
	"fmt"

	"dyncomp/internal/maxplus"
)

// Validate resolves channel endpoints and rotation metadata and checks the
// structural rules required by both execution engines:
//
//   - every channel has exactly one writer and one reader;
//   - every function is mapped, has a non-empty body, and its first
//     statement is a Read (an iteration is triggered by data arrival);
//   - a function reads or writes each channel at most once per iteration
//     (single-rate dataflow) and never both ends of the same channel;
//   - every Exec has a cost function, every FIFO a positive capacity,
//     every resource a positive speed, every source a positive count;
//   - token provenance is acyclic, so data-dependent execution durations
//     are well defined for the k-th iteration.
//
// Validate is idempotent and must be called before BuildBaseline/Derive.
func (a *Architecture) Validate() error {
	if a.validated {
		return nil
	}

	writers := make(map[*Channel][]string)
	readers := make(map[*Channel][]string)
	owned := make(map[*Channel]bool)
	for _, ch := range a.Channels {
		owned[ch] = true
		ch.WriterFunc, ch.ReaderFunc, ch.Source, ch.Sink = nil, nil, nil, nil
		if ch.Name == "" {
			return errors.New("model: channel with empty name")
		}
		if ch.Kind == FIFO && ch.Capacity < 1 {
			return fmt.Errorf("model: FIFO channel %q needs capacity >= 1, got %d", ch.Name, ch.Capacity)
		}
	}

	for _, f := range a.Functions {
		if f.Name == "" {
			return errors.New("model: function with empty name")
		}
		if len(f.Body) == 0 {
			return fmt.Errorf("model: function %q has an empty body", f.Name)
		}
		if _, ok := f.Body[0].(Read); !ok {
			return fmt.Errorf("model: function %q must start with a Read (data-driven iteration)", f.Name)
		}
		if f.Resource == nil {
			return fmt.Errorf("model: function %q is not mapped to any resource", f.Name)
		}
		seenRead := make(map[*Channel]bool)
		seenWrite := make(map[*Channel]bool)
		for i, st := range f.Body {
			switch s := st.(type) {
			case Read:
				if s.Ch == nil {
					return fmt.Errorf("model: function %q statement %d reads a nil channel", f.Name, i)
				}
				if !owned[s.Ch] {
					return fmt.Errorf("model: function %q reads channel %q that is not part of the architecture", f.Name, s.Ch.Name)
				}
				if seenRead[s.Ch] {
					return fmt.Errorf("model: function %q reads channel %q twice per iteration (multi-rate is unsupported)", f.Name, s.Ch.Name)
				}
				seenRead[s.Ch] = true
				readers[s.Ch] = append(readers[s.Ch], f.Name)
				s.Ch.ReaderFunc = f
			case Write:
				if s.Ch == nil {
					return fmt.Errorf("model: function %q statement %d writes a nil channel", f.Name, i)
				}
				if !owned[s.Ch] {
					return fmt.Errorf("model: function %q writes channel %q that is not part of the architecture", f.Name, s.Ch.Name)
				}
				if seenWrite[s.Ch] {
					return fmt.Errorf("model: function %q writes channel %q twice per iteration (multi-rate is unsupported)", f.Name, s.Ch.Name)
				}
				seenWrite[s.Ch] = true
				writers[s.Ch] = append(writers[s.Ch], f.Name)
				s.Ch.WriterFunc = f
			case Exec:
				if s.Cost == nil {
					return fmt.Errorf("model: function %q execute %q has no cost function", f.Name, s.Label)
				}
			default:
				return fmt.Errorf("model: function %q has unknown statement type %T", f.Name, st)
			}
		}
		for ch := range seenRead {
			if seenWrite[ch] {
				return fmt.Errorf("model: function %q both reads and writes channel %q", f.Name, ch.Name)
			}
		}
	}

	for _, s := range a.Sources {
		if s.Ch == nil || !owned[s.Ch] {
			return fmt.Errorf("model: source %q feeds an unknown channel", s.Name)
		}
		if s.Schedule == nil || s.Tokens == nil {
			return fmt.Errorf("model: source %q needs both a schedule and a token generator", s.Name)
		}
		if s.Count <= 0 {
			return fmt.Errorf("model: source %q needs a positive token count, got %d", s.Name, s.Count)
		}
		writers[s.Ch] = append(writers[s.Ch], s.Name)
		s.Ch.Source = s
	}
	for _, s := range a.Sinks {
		if s.Ch == nil || !owned[s.Ch] {
			return fmt.Errorf("model: sink %q drains an unknown channel", s.Name)
		}
		readers[s.Ch] = append(readers[s.Ch], s.Name)
		s.Ch.Sink = s
	}

	for _, ch := range a.Channels {
		if n := len(writers[ch]); n != 1 {
			return fmt.Errorf("model: channel %q has %d writers %v, want exactly 1", ch.Name, n, writers[ch])
		}
		if n := len(readers[ch]); n != 1 {
			return fmt.Errorf("model: channel %q has %d readers %v, want exactly 1", ch.Name, n, readers[ch])
		}
	}

	for _, r := range a.Resources {
		if r.OpsPerSec <= 0 {
			return fmt.Errorf("model: resource %q needs a positive speed", r.Name)
		}
		switch r.Kind {
		case Processor:
			r.Concurrency = 1
		case Hardware:
			r.Concurrency = len(r.Rotation)
		default:
			return fmt.Errorf("model: resource %q has unknown kind %v", r.Name, r.Kind)
		}
		if len(r.Rotation) == 0 && r.Kind == Hardware {
			r.Concurrency = 1
		}
	}

	if err := a.checkProvenance(); err != nil {
		return err
	}

	a.validated = true
	return nil
}

// SourceOf returns the source whose tokens channel ch carries, following
// provenance back through the writers' bodies: the token on ch at
// iteration k is SourceOf(ch).TokenAt(k). Validate must have succeeded.
// It reads the architecture and writes nothing, so concurrent callers
// may share one; a caller that needs many iterations resolves the source
// once.
func (a *Architecture) SourceOf(ch *Channel) *Source {
	cur := ch
	for cur.Source == nil {
		cur = a.provenanceOf(cur)
	}
	return cur.Source
}

// provenanceOf returns the channel whose token the writer of ch forwards:
// the channel of the last Read preceding the Write of ch in the writer's
// body.
func (a *Architecture) provenanceOf(ch *Channel) *Channel {
	f := ch.WriterFunc
	var last *Channel
	for _, st := range f.Body {
		switch s := st.(type) {
		case Read:
			last = s.Ch
		case Write:
			if s.Ch == ch {
				return last
			}
		}
	}
	return nil
}

// checkProvenance verifies that every channel's token can be traced back
// to a source without cycles.
func (a *Architecture) checkProvenance() error {
	for _, ch := range a.Channels {
		seen := map[*Channel]bool{}
		cur := ch
		for cur.Source == nil {
			if seen[cur] {
				return fmt.Errorf("model: token provenance cycle through channel %q", ch.Name)
			}
			seen[cur] = true
			next := a.provenanceOf(cur)
			if next == nil {
				return fmt.Errorf("model: channel %q is written before any read in function %q; token provenance undefined", cur.Name, cur.WriterFunc.Name)
			}
			cur = next
		}
	}
	return nil
}

// ExecInfo is one Exec statement resolved against the mapping. It exposes
// the statement's load and duration as pure functions of the iteration
// index.
//
// The token provenance is resolved to its source once at construction.
// An ExecInfo is immutable, so it is safe for concurrent use. The
// kernel-free engines do not call it on their hot path: derive reads one
// token per source and one load per exec statement per iteration into
// its row (see derive.Result).
type ExecInfo struct {
	Func      *Function
	StmtIndex int
	Label     string
	Resource  *Resource

	src  *Source
	cost CostFn
}

// Load returns the operation count of the statement at iteration k.
func (e *ExecInfo) Load(k int) Load {
	return e.cost(e.src.TokenAt(k))
}

// Duration returns the execution duration at iteration k in ticks.
func (e *ExecInfo) Duration(k int) maxplus.T { return e.Resource.DurationOf(e.Load(k)) }

// Source returns the source whose tokens the statement processes.
func (e *ExecInfo) Source() *Source { return e.src }

// ExecInfoOf resolves the stmtIndex-th statement of f, which must be an
// Exec with a preceding Read (its token provenance). Validate must have
// succeeded.
func (a *Architecture) ExecInfoOf(f *Function, stmtIndex int) (*ExecInfo, error) {
	if stmtIndex < 0 || stmtIndex >= len(f.Body) {
		return nil, fmt.Errorf("model: statement index %d out of range for %q", stmtIndex, f.Name)
	}
	ex, ok := f.Body[stmtIndex].(Exec)
	if !ok {
		return nil, fmt.Errorf("model: statement %d of %q is not an Exec", stmtIndex, f.Name)
	}
	var prov *Channel
	for i := 0; i < stmtIndex; i++ {
		if r, ok := f.Body[i].(Read); ok {
			prov = r.Ch
		}
	}
	if prov == nil {
		return nil, fmt.Errorf("model: execute %q of %q has no preceding Read", ex.Label, f.Name)
	}
	return &ExecInfo{
		Func:      f,
		StmtIndex: stmtIndex,
		Label:     ex.Label,
		Resource:  f.Resource,
		src:       a.SourceOf(prov), // resolved once
		cost:      ex.Cost,
	}, nil
}

// Execs returns the resolved ExecInfo of every Exec statement in the
// architecture, in function declaration then body order.
func (a *Architecture) Execs() ([]*ExecInfo, error) {
	var out []*ExecInfo
	for _, f := range a.Functions {
		for i := range f.Body {
			if _, ok := f.Body[i].(Exec); !ok {
				continue
			}
			e, err := a.ExecInfoOf(f, i)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}
