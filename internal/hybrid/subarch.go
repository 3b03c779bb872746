package hybrid

import (
	"fmt"

	"dyncomp/internal/model"
)

// subArch is the mirrored sub-architecture of an abstracted group: the
// group's functions and internal channels, with synthetic sources feeding
// the boundary inputs and a synthetic sink draining the boundary output.
// Mirrored channels keep their original names so instant labels line up
// with a full reference run.
type subArch struct {
	arch     *model.Architecture
	mirror   map[*model.Channel]*model.Channel // original -> mirrored
	internal map[*model.Channel]bool           // original channels internal to the group
	inOrig   []*model.Channel                  // boundary inputs, in synthetic-source order
	outOrig  []*model.Channel                  // boundary outputs
}

// buildSub mirrors the group into a standalone architecture suitable for
// derivation. Token provenance of the synthetic sources resolves through
// the full architecture, so data-dependent durations stay identical.
func buildSub(a *model.Architecture, group map[*model.Function]bool, iters int) (*subArch, error) {
	sub := &subArch{
		arch:     model.NewArchitecture(a.Name + "/group"),
		mirror:   map[*model.Channel]*model.Channel{},
		internal: map[*model.Channel]bool{},
	}

	endpointIn := func(f *model.Function) bool { return f != nil && group[f] }
	for _, ch := range a.Channels {
		wIn := endpointIn(ch.WriterFunc)
		rIn := endpointIn(ch.ReaderFunc)
		if !wIn && !rIn {
			continue // fully outside
		}
		m := sub.arch.AddChannel(ch.Name, ch.Kind, ch.Capacity)
		sub.mirror[ch] = m
		switch {
		case wIn && rIn:
			sub.internal[ch] = true
		case rIn:
			sub.inOrig = append(sub.inOrig, ch)
		default:
			sub.outOrig = append(sub.outOrig, ch)
		}
	}

	// Mirror the group's functions with re-pointed channel references.
	mirrored := map[*model.Function]*model.Function{}
	for _, f := range a.Functions {
		if !group[f] {
			continue
		}
		body := make([]model.Stmt, len(f.Body))
		for i, st := range f.Body {
			body[i] = st
			var ch *model.Channel
			switch s := st.(type) {
			case model.Read:
				ch, body[i] = s.Ch, model.Read{Ch: sub.mirror[s.Ch]}
			case model.Write:
				ch, body[i] = s.Ch, model.Write{Ch: sub.mirror[s.Ch]}
			}
			if ch != nil && sub.mirror[ch] == nil {
				return nil, fmt.Errorf("hybrid: channel %q of %q not mirrored", ch.Name, f.Name)
			}
		}
		mirrored[f] = sub.arch.AddFunction(f.Name, body...)
	}

	// Mirror the group's resources, preserving rotation order.
	for _, r := range a.Resources {
		if len(r.Rotation) == 0 || !group[r.Rotation[0]] {
			continue
		}
		var mr *model.Resource
		if r.Kind == model.Hardware {
			mr = sub.arch.AddHardware(r.Name, r.OpsPerSec)
		} else {
			mr = sub.arch.AddProcessor(r.Name, r.OpsPerSec)
		}
		for _, f := range r.Rotation {
			sub.arch.Map(mr, mirrored[f])
		}
	}

	// Synthetic environment: sources deliver the tokens that really cross
	// the boundary; the schedule is irrelevant (the equivalent model feeds
	// observed arrival instants).
	for _, ch := range sub.inOrig {
		src := a.SourceOf(ch) // resolved once, not per token
		sub.arch.AddSource("bsrc:"+ch.Name, sub.mirror[ch], model.Eager(), src.TokenAt, iters)
	}
	for _, ch := range sub.outOrig {
		sub.arch.AddSink("bsink:"+ch.Name, sub.mirror[ch])
	}

	if err := sub.arch.Validate(); err != nil {
		return nil, fmt.Errorf("hybrid: group sub-architecture invalid: %w", err)
	}
	return sub, nil
}
