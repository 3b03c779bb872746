package archjson

import (
	"fmt"
	"math"
	"sort"

	"dyncomp/internal/maxplus"
	"dyncomp/internal/model"
	"dyncomp/internal/workload"
	"dyncomp/internal/zoo"
)

// Params is a named-integer parameter binding: a sweep point, a
// zoo.ParamMap, an optimizer candidate.
type Params = zoo.Params

// ParamNames returns the spec's declared parameter names, sorted.
func (s *Spec) ParamNames() []string {
	names := make([]string, 0, len(s.Parameters))
	for i := range s.Parameters {
		names = append(names, s.Parameters[i].Name)
	}
	sort.Strings(names)
	return names
}

// CheckParams rejects bindings that name parameters the spec does not
// declare, mirroring zoo.CheckParams so typos fail loudly instead of
// silently falling back to defaults.
func (s *Spec) CheckParams(p map[string]int64) error {
	declared := map[string]bool{}
	for i := range s.Parameters {
		declared[s.Parameters[i].Name] = true
	}
	var bad []string
	for name := range p {
		if !declared[name] {
			bad = append(bad, name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	known := s.ParamNames()
	if len(known) == 0 {
		return errf(CodeInvalid, "architecture %q declares no parameters, got %v", s.Name, bad)
	}
	return errf(CodeInvalid, "architecture %q: unknown parameter(s) %v (declared: %v)", s.Name, bad, known)
}

// binding resolves the spec's parameters under p (nil p: all defaults).
func (s *Spec) bindingFor(p Params) binding {
	b := make(binding, len(s.Parameters))
	for i := range s.Parameters {
		par := &s.Parameters[i]
		v := par.Default
		if p != nil {
			if pv, ok := p.Lookup(par.Name); ok {
				v = pv
			}
		}
		b[par.Name] = float64(v)
	}
	return b
}

// CanonicalGroup returns the spec's canonical abstraction group for
// the hybrid engine: the group named "hybrid" when present, else the
// sole declared group, else nil (hybrid not runnable without an
// explicit group).
func (s *Spec) CanonicalGroup() []string {
	for i := range s.Groups {
		if s.Groups[i].Name == "hybrid" {
			return append([]string(nil), s.Groups[i].Functions...)
		}
	}
	if len(s.Groups) == 1 {
		return append([]string(nil), s.Groups[0].Functions...)
	}
	return nil
}

// Source returns the spec as a model source, the view the serving
// layer and the sweep CLI share with registered scenarios. Its group
// is the canonical one at every binding: a spec's function set does
// not depend on its parameters.
func (s *Spec) Source() zoo.Source {
	return zoo.Source{
		Name:        s.Name,
		Inline:      true,
		CheckParams: s.CheckParams,
		Build:       s.Build,
		Group:       func(Params) []string { return s.CanonicalGroup() },
	}
}

// Build resolves the spec under the parameter binding p (nil: declared
// defaults) into a validated model.Architecture. Failures — including
// resolved-value violations the structural Check cannot see, and
// anything model.Validate rejects — come back as *Error with
// CodeInvalid. Build never panics.
func (s *Spec) Build(p Params) (a *model.Architecture, err error) {
	defer func() {
		if r := recover(); r != nil {
			a, err = nil, errf(CodeInvalid, "architecture %q does not build: %v", s.Name, r)
		}
	}()
	if err := s.Check(); err != nil {
		return nil, err
	}
	b := s.bindingFor(p)

	a = model.NewArchitecture(s.Name)
	channels := make(map[string]*model.Channel, len(s.Channels))
	for i := range s.Channels {
		c := &s.Channels[i]
		kind := model.Rendezvous
		if c.Kind == KindFIFO {
			kind = model.FIFO
		}
		channels[c.Name] = a.AddChannel(c.Name, kind, c.Capacity)
	}
	functions := make(map[string]*model.Function, len(s.Functions))
	for i := range s.Functions {
		f := &s.Functions[i]
		body := make([]model.Stmt, 0, len(f.Body))
		for j := range f.Body {
			st := &f.Body[j]
			switch {
			case st.Read != "":
				body = append(body, model.Read{Ch: channels[st.Read]})
			case st.Write != "":
				body = append(body, model.Write{Ch: channels[st.Write]})
			default:
				cost, err := st.Exec.Cost.costFn(b)
				if err != nil {
					return nil, errf(CodeInvalid, "function %q statement %d: %v", f.Name, j, err)
				}
				label := st.Exec.Label
				if label == "" {
					label = fmt.Sprintf("%s_e%d", f.Name, j)
				}
				body = append(body, model.Exec{Label: label, Cost: cost})
			}
		}
		functions[f.Name] = a.AddFunction(f.Name, body...)
	}
	for i := range s.Resources {
		r := &s.Resources[i]
		speed := r.OpsPerSec.resolve(b, 0)
		if !(speed > 0) || math.IsInf(speed, 0) {
			return nil, errf(CodeInvalid, "resource %q: ops_per_sec resolves to %g (must be a positive finite number)", r.Name, speed)
		}
		var res *model.Resource
		if r.Kind == KindHardware {
			res = a.AddHardware(r.Name, speed)
		} else {
			res = a.AddProcessor(r.Name, speed)
		}
		for j := range s.Mapping {
			m := &s.Mapping[j]
			if m.Resource != r.Name {
				continue
			}
			fns := make([]*model.Function, len(m.Functions))
			for k, name := range m.Functions {
				fns[k] = functions[name]
			}
			a.Map(res, fns...)
		}
	}
	for i := range s.Sources {
		src := &s.Sources[i]
		count := src.Count.resolve(b, 0)
		if count != math.Trunc(count) || count < 1 || count > maxCount {
			return nil, errf(CodeInvalid, "source %q: count resolves to %g (must be an integer in [1, %d])", src.Name, count, maxCount)
		}
		sched, err := src.Schedule.scheduleFn(src.Name, b)
		if err != nil {
			return nil, err
		}
		tokens, err := src.Tokens.tokenFn(src.Name, b)
		if err != nil {
			return nil, err
		}
		a.AddSource(src.Name, channels[src.Channel], sched, tokens, int(count))
	}
	for i := range s.Sinks {
		sk := &s.Sinks[i]
		a.AddSink(sk.Name, channels[sk.Channel])
	}
	if err := a.Validate(); err != nil {
		return nil, errf(CodeInvalid, "architecture %q does not validate: %v", s.Name, err)
	}
	return a, nil
}

// costFn compiles a cost declaration under a binding. Table costs are
// keyed on the token's iteration index K, which every engine stamps at
// the source, so tables are engine-uniform by construction.
func (c *Cost) costFn(b binding) (model.CostFn, error) {
	switch c.Kind {
	case CostFixed:
		ops := c.Ops.resolve(b, 0)
		if ops < 0 {
			return nil, fmt.Errorf("fixed cost ops resolves to %g (must be >= 0)", ops)
		}
		return model.FixedOps(ops), nil
	case CostPerByte:
		base := c.Base.resolve(b, 0)
		per := c.PerByte.resolve(b, 0)
		if base < 0 || per < 0 {
			return nil, fmt.Errorf("per_byte cost resolves to base %g per_byte %g (must be >= 0)", base, per)
		}
		return model.OpsPerByte(base, per), nil
	default: // CostTable, by Check
		table := c.Table
		return func(t model.Token) model.Load {
			return model.Load{Ops: table[clampIndex(t.K, len(table))]}
		}, nil
	}
}

// scheduleFn compiles a schedule declaration (nil: eager).
func (sc *Schedule) scheduleFn(source string, b binding) (model.ScheduleFn, error) {
	if sc == nil {
		return model.Eager(), nil
	}
	switch sc.Kind {
	case ScheduleEager:
		return model.Eager(), nil
	case SchedulePeriodic:
		period := sc.Period.resolve(b, 0)
		offset := sc.Offset.resolve(b, 0)
		if period != math.Trunc(period) || period < 0 || offset != math.Trunc(offset) || offset < 0 {
			return nil, errf(CodeInvalid, "source %q: periodic schedule resolves to period %g offset %g (must be nonnegative integers)", source, period, offset)
		}
		return model.Periodic(maxplus.T(period), maxplus.T(offset)), nil
	default: // ScheduleTable, by Check
		table := sc.Table
		return func(k int) maxplus.T {
			return maxplus.T(table[clampIndex(k, len(table))])
		}, nil
	}
}

// scalarFn compiles one per-iteration value stream.
func (sc *Scalar) scalarFn(where string, b binding) (func(k int) float64, error) {
	switch sc.Kind {
	case ScalarFixed:
		v := sc.Value.resolve(b, 0)
		return func(int) float64 { return v }, nil
	case ScalarStream:
		seed := sc.Seed.resolve(b, 0)
		min := sc.Min.resolve(b, 0)
		span := sc.Span.resolve(b, 1)
		for _, f := range []struct {
			name string
			v    float64
		}{{"seed", seed}, {"min", min}, {"span", span}} {
			if f.v != math.Trunc(f.v) {
				return nil, errf(CodeInvalid, "%s: stream %s resolves to %g (must be an integer)", where, f.name, f.v)
			}
		}
		if span < 1 {
			return nil, errf(CodeInvalid, "%s: stream span resolves to %g (must be >= 1)", where, span)
		}
		stream := workload.SizeStream(int64(seed), int64(min), int64(span))
		return func(k int) float64 { return float64(stream(k)) }, nil
	default: // ScalarTable, by Check
		table := sc.Table
		return func(k int) float64 {
			return table[clampIndex(k, len(table))]
		}, nil
	}
}

// tokenFn compiles the token generator (nil: size-0 tokens).
func (t *Tokens) tokenFn(source string, b binding) (model.TokenFn, error) {
	if t == nil {
		return func(k int) model.Token { return model.Token{K: k} }, nil
	}
	var size func(k int) float64
	if t.Size != nil {
		var err error
		size, err = t.Size.scalarFn(fmt.Sprintf("source %q token size", source), b)
		if err != nil {
			return nil, err
		}
	}
	attrs := make([]func(k int) float64, len(t.Attrs))
	for i := range t.Attrs {
		fn, err := t.Attrs[i].scalarFn(fmt.Sprintf("source %q token attr %d", source, i), b)
		if err != nil {
			return nil, err
		}
		attrs[i] = fn
	}
	return func(k int) model.Token {
		tok := model.Token{K: k}
		if size != nil {
			tok.Size = int64(size(k))
		}
		if len(attrs) > 0 {
			tok.Attrs = make([]float64, len(attrs))
			for i, fn := range attrs {
				tok.Attrs[i] = fn(k)
			}
		}
		return tok
	}, nil
}

// clampIndex clamps k into [0, n): iterations beyond a table's end
// repeat its last entry, matching how steady-state extension works
// elsewhere (and keeping exported finite tables total functions).
func clampIndex(k, n int) int {
	if k < 0 {
		return 0
	}
	if k >= n {
		return n - 1
	}
	return k
}

// CostMetrics is the analytic platform cost of one parameter binding,
// summed over the declared per-parameter cost models.
type CostMetrics struct {
	Area     float64
	Power    float64
	HasArea  bool // at least one parameter declares an area model
	HasPower bool // at least one parameter declares a power model
}

// EvalCost evaluates the spec's declared area/power models under p.
func (s *Spec) EvalCost(p Params) (CostMetrics, error) {
	var m CostMetrics
	b := s.bindingFor(p)
	for i := range s.Parameters {
		par := &s.Parameters[i]
		v := b[par.Name]
		if par.Area != nil {
			c, err := par.Area.eval(par.Name, "area", v)
			if err != nil {
				return CostMetrics{}, err
			}
			m.Area += c
			m.HasArea = true
		}
		if par.Power != nil {
			c, err := par.Power.eval(par.Name, "power", v)
			if err != nil {
				return CostMetrics{}, err
			}
			m.Power += c
			m.HasPower = true
		}
	}
	return m, nil
}

func (cm *CostModel) eval(param, which string, v float64) (float64, error) {
	exp := cm.Exp
	if exp == 0 {
		exp = 1
	}
	c := cm.Base + cm.Scale*math.Pow(v, exp)
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0, errf(CodeInvalid, "parameter %q: %s cost is not finite at value %g", param, which, v)
	}
	return c, nil
}
