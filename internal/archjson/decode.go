package archjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// Decode parses and validates a version-1 spec. Failures are always a
// *Error with a stable code; Decode never panics, whatever the input.
func Decode(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, errf(CodeTooLarge, "architecture spec is %d bytes (max %d)", len(data), MaxSpecBytes)
	}
	// Probe the version first with a loose decode so an unknown version
	// reports CodeVersion even when the rest of the document uses fields
	// this release does not know.
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, errf(CodeInvalid, "architecture is not a JSON object: %v", err)
	}
	if probe.Version != Version {
		return nil, errf(CodeVersion, "unsupported architecture version %d (this build reads version %d)", probe.Version, Version)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, errf(CodeInvalid, "invalid architecture spec: %v", err)
	}
	if dec.More() {
		return nil, errf(CodeInvalid, "invalid architecture spec: trailing data after JSON object")
	}
	if err := s.Check(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Check validates the spec's structure: bounds, name uniqueness,
// reference resolution, kind/field consistency. It does not resolve
// parameters — resolved-value rules (positive speeds, count bounds)
// are enforced by Build, which knows the binding.
func (s *Spec) Check() error {
	if s.Version != Version {
		return errf(CodeVersion, "unsupported architecture version %d (this build reads version %d)", s.Version, Version)
	}
	if s.Name == "" {
		return errf(CodeInvalid, "architecture name must not be empty")
	}
	for section, n := range map[string]int{
		"parameters": len(s.Parameters), "channels": len(s.Channels),
		"functions": len(s.Functions), "resources": len(s.Resources),
		"mapping": len(s.Mapping), "sources": len(s.Sources),
		"sinks": len(s.Sinks), "groups": len(s.Groups),
	} {
		if n > maxElems {
			return errf(CodeInvalid, "%s has %d entries (max %d)", section, n, maxElems)
		}
	}
	params := map[string]*Parameter{}
	for i := range s.Parameters {
		p := &s.Parameters[i]
		if p.Name == "" {
			return errf(CodeInvalid, "parameter %d: name must not be empty", i)
		}
		if _, dup := params[p.Name]; dup {
			return errf(CodeInvalid, "duplicate parameter %q", p.Name)
		}
		params[p.Name] = p
		if len(p.Values) > maxTableLen {
			return errf(CodeInvalid, "parameter %q: %d values (max %d)", p.Name, len(p.Values), maxTableLen)
		}
		seen := map[int64]bool{}
		for _, v := range p.Values {
			if seen[v] {
				return errf(CodeInvalid, "parameter %q: duplicate value %d", p.Name, v)
			}
			seen[v] = true
		}
		for _, cm := range []struct {
			name  string
			model *CostModel
		}{{"area", p.Area}, {"power", p.Power}} {
			if cm.model == nil {
				continue
			}
			if err := cm.model.check(p, cm.name); err != nil {
				return err
			}
		}
	}
	refOK := func(where string, e *Expr) error {
		if e == nil || e.param == "" {
			return nil
		}
		if _, ok := params[e.param]; !ok {
			return errf(CodeInvalid, "%s references undeclared parameter %q", where, e.param)
		}
		return nil
	}
	channels := map[string]*Channel{}
	for i := range s.Channels {
		c := &s.Channels[i]
		if c.Name == "" {
			return errf(CodeInvalid, "channel %d: name must not be empty", i)
		}
		if _, dup := channels[c.Name]; dup {
			return errf(CodeInvalid, "duplicate channel %q", c.Name)
		}
		channels[c.Name] = c
		switch c.Kind {
		case KindRendezvous:
			if c.Capacity != 0 {
				return errf(CodeInvalid, "channel %q: rendezvous channels take no capacity", c.Name)
			}
		case KindFIFO:
			if c.Capacity < 1 {
				return errf(CodeInvalid, "channel %q: fifo capacity must be >= 1 (got %d)", c.Name, c.Capacity)
			}
		default:
			return errf(CodeInvalid, "channel %q: unknown kind %q (want %q or %q)", c.Name, c.Kind, KindRendezvous, KindFIFO)
		}
	}
	functions := map[string]bool{}
	for i := range s.Functions {
		f := &s.Functions[i]
		if f.Name == "" {
			return errf(CodeInvalid, "function %d: name must not be empty", i)
		}
		if functions[f.Name] {
			return errf(CodeInvalid, "duplicate function %q", f.Name)
		}
		functions[f.Name] = true
		if len(f.Body) == 0 {
			return errf(CodeInvalid, "function %q: body must not be empty", f.Name)
		}
		if len(f.Body) > maxBodyStmts {
			return errf(CodeInvalid, "function %q: body has %d statements (max %d)", f.Name, len(f.Body), maxBodyStmts)
		}
		if f.Body[0].Read == "" {
			return errf(CodeInvalid, "function %q: body must start with a read (the model is read-driven)", f.Name)
		}
		for j := range f.Body {
			st := &f.Body[j]
			set := 0
			for _, on := range []bool{st.Read != "", st.Write != "", st.Exec != nil} {
				if on {
					set++
				}
			}
			if set != 1 {
				return errf(CodeInvalid, "function %q statement %d: exactly one of read/write/exec must be set", f.Name, j)
			}
			switch {
			case st.Read != "":
				if _, ok := channels[st.Read]; !ok {
					return errf(CodeInvalid, "function %q reads unknown channel %q", f.Name, st.Read)
				}
			case st.Write != "":
				if _, ok := channels[st.Write]; !ok {
					return errf(CodeInvalid, "function %q writes unknown channel %q", f.Name, st.Write)
				}
			default:
				where := fmt.Sprintf("function %q statement %d cost", f.Name, j)
				if err := st.Exec.Cost.check(where, refOK); err != nil {
					return err
				}
			}
		}
	}
	resources := map[string]bool{}
	for i := range s.Resources {
		r := &s.Resources[i]
		if r.Name == "" {
			return errf(CodeInvalid, "resource %d: name must not be empty", i)
		}
		if resources[r.Name] {
			return errf(CodeInvalid, "duplicate resource %q", r.Name)
		}
		resources[r.Name] = true
		if r.Kind != KindProcessor && r.Kind != KindHardware {
			return errf(CodeInvalid, "resource %q: unknown kind %q (want %q or %q)", r.Name, r.Kind, KindProcessor, KindHardware)
		}
		if r.OpsPerSec == nil {
			return errf(CodeInvalid, "resource %q: ops_per_sec is required", r.Name)
		}
		if err := checkExpr(fmt.Sprintf("resource %q ops_per_sec", r.Name), r.OpsPerSec, refOK); err != nil {
			return err
		}
	}
	mapped := map[string]string{}
	for i := range s.Mapping {
		m := &s.Mapping[i]
		if !resources[m.Resource] {
			return errf(CodeInvalid, "mapping %d: unknown resource %q", i, m.Resource)
		}
		if len(m.Functions) == 0 {
			return errf(CodeInvalid, "mapping for resource %q allocates no functions", m.Resource)
		}
		if len(m.Functions) > maxElems {
			return errf(CodeInvalid, "mapping for resource %q has %d functions (max %d)", m.Resource, len(m.Functions), maxElems)
		}
		for _, fn := range m.Functions {
			if !functions[fn] {
				return errf(CodeInvalid, "mapping for resource %q allocates unknown function %q", m.Resource, fn)
			}
			if prev, dup := mapped[fn]; dup {
				return errf(CodeInvalid, "function %q mapped to both %q and %q", fn, prev, m.Resource)
			}
			mapped[fn] = m.Resource
		}
	}
	sources := map[string]bool{}
	for i := range s.Sources {
		src := &s.Sources[i]
		if src.Name == "" {
			return errf(CodeInvalid, "source %d: name must not be empty", i)
		}
		if sources[src.Name] {
			return errf(CodeInvalid, "duplicate source %q", src.Name)
		}
		sources[src.Name] = true
		if _, ok := channels[src.Channel]; !ok {
			return errf(CodeInvalid, "source %q feeds unknown channel %q", src.Name, src.Channel)
		}
		if src.Count == nil {
			return errf(CodeInvalid, "source %q: count is required", src.Name)
		}
		if err := checkExpr(fmt.Sprintf("source %q count", src.Name), src.Count, refOK); err != nil {
			return err
		}
		if src.Schedule != nil {
			if err := src.Schedule.check(src.Name, refOK); err != nil {
				return err
			}
		}
		if src.Tokens != nil {
			if src.Tokens.Size != nil {
				if err := src.Tokens.Size.check(fmt.Sprintf("source %q token size", src.Name), refOK); err != nil {
					return err
				}
			}
			if len(src.Tokens.Attrs) > maxElems {
				return errf(CodeInvalid, "source %q: %d token attrs (max %d)", src.Name, len(src.Tokens.Attrs), maxElems)
			}
			for j := range src.Tokens.Attrs {
				if err := src.Tokens.Attrs[j].check(fmt.Sprintf("source %q token attr %d", src.Name, j), refOK); err != nil {
					return err
				}
			}
		}
	}
	for i := range s.Sinks {
		sk := &s.Sinks[i]
		if sk.Name == "" {
			return errf(CodeInvalid, "sink %d: name must not be empty", i)
		}
		if _, ok := channels[sk.Channel]; !ok {
			return errf(CodeInvalid, "sink %q drains unknown channel %q", sk.Name, sk.Channel)
		}
	}
	groups := map[string]bool{}
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Name == "" {
			return errf(CodeInvalid, "group %d: name must not be empty", i)
		}
		if groups[g.Name] {
			return errf(CodeInvalid, "duplicate group %q", g.Name)
		}
		groups[g.Name] = true
		if len(g.Functions) == 0 {
			return errf(CodeInvalid, "group %q names no functions", g.Name)
		}
		if len(g.Functions) > maxElems {
			return errf(CodeInvalid, "group %q has %d functions (max %d)", g.Name, len(g.Functions), maxElems)
		}
		for _, fn := range g.Functions {
			if !functions[fn] {
				return errf(CodeInvalid, "group %q names unknown function %q", g.Name, fn)
			}
		}
	}
	return nil
}

func (cm *CostModel) check(p *Parameter, which string) error {
	for _, v := range []float64{cm.Base, cm.Scale, cm.Exp} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errf(CodeInvalid, "parameter %q: %s cost model has a non-finite coefficient", p.Name, which)
		}
	}
	if cm.Exp != 0 && cm.Exp != math.Trunc(cm.Exp) || cm.Exp < 0 {
		// v^exp with fractional or negative exp is only defined for v > 0.
		bad := p.Default <= 0
		for _, v := range p.Values {
			bad = bad || v <= 0
		}
		if bad {
			return errf(CodeInvalid, "parameter %q: %s cost model exponent %g requires strictly positive default and values", p.Name, which, cm.Exp)
		}
	}
	return nil
}

func checkExpr(where string, e *Expr, refOK func(string, *Expr) error) error {
	if e == nil {
		return nil
	}
	if err := refOK(where, e); err != nil {
		return err
	}
	if e.param == "" && (math.IsNaN(e.value) || math.IsInf(e.value, 0)) {
		return errf(CodeInvalid, "%s is not finite", where)
	}
	return nil
}

func (c *Cost) check(where string, refOK func(string, *Expr) error) error {
	switch c.Kind {
	case CostFixed:
		if c.Ops == nil {
			return errf(CodeInvalid, "%s: fixed cost requires ops", where)
		}
		if c.Base != nil || c.PerByte != nil || c.Table != nil {
			return errf(CodeInvalid, "%s: fixed cost takes only ops", where)
		}
		return checkExpr(where+" ops", c.Ops, refOK)
	case CostPerByte:
		if c.Ops != nil || c.Table != nil {
			return errf(CodeInvalid, "%s: per_byte cost takes only base and per_byte", where)
		}
		if err := checkExpr(where+" base", c.Base, refOK); err != nil {
			return err
		}
		return checkExpr(where+" per_byte", c.PerByte, refOK)
	case CostTable:
		if c.Ops != nil || c.Base != nil || c.PerByte != nil {
			return errf(CodeInvalid, "%s: table cost takes only table", where)
		}
		return checkTable(where, c.Table)
	default:
		return errf(CodeInvalid, "%s: unknown cost kind %q", where, c.Kind)
	}
}

func checkTable(where string, t []float64) error {
	if len(t) == 0 {
		return errf(CodeInvalid, "%s: table must not be empty", where)
	}
	if len(t) > maxTableLen {
		return errf(CodeInvalid, "%s: table has %d entries (max %d)", where, len(t), maxTableLen)
	}
	for i, v := range t {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errf(CodeInvalid, "%s: table entry %d is not finite", where, i)
		}
	}
	return nil
}

func (sc *Schedule) check(source string, refOK func(string, *Expr) error) error {
	where := fmt.Sprintf("source %q schedule", source)
	switch sc.Kind {
	case ScheduleEager:
		if sc.Period != nil || sc.Offset != nil || sc.Table != nil {
			return errf(CodeInvalid, "%s: eager schedule takes no fields", where)
		}
		return nil
	case SchedulePeriodic:
		if sc.Table != nil {
			return errf(CodeInvalid, "%s: periodic schedule takes period and offset only", where)
		}
		if sc.Period == nil {
			return errf(CodeInvalid, "%s: periodic schedule requires period", where)
		}
		if err := checkExpr(where+" period", sc.Period, refOK); err != nil {
			return err
		}
		return checkExpr(where+" offset", sc.Offset, refOK)
	case ScheduleTable:
		if sc.Period != nil || sc.Offset != nil {
			return errf(CodeInvalid, "%s: table schedule takes table only", where)
		}
		if len(sc.Table) == 0 {
			return errf(CodeInvalid, "%s: table must not be empty", where)
		}
		if len(sc.Table) > maxTableLen {
			return errf(CodeInvalid, "%s: table has %d entries (max %d)", where, len(sc.Table), maxTableLen)
		}
		prev := int64(0)
		for i, v := range sc.Table {
			if v < 0 {
				return errf(CodeInvalid, "%s: instant %d is negative", where, i)
			}
			if v < prev {
				return errf(CodeInvalid, "%s: instants must be nondecreasing (entry %d)", where, i)
			}
			prev = v
		}
		return nil
	default:
		return errf(CodeInvalid, "%s: unknown kind %q", where, sc.Kind)
	}
}

func (sc *Scalar) check(where string, refOK func(string, *Expr) error) error {
	switch sc.Kind {
	case ScalarFixed:
		if sc.Seed != nil || sc.Min != nil || sc.Span != nil || sc.Table != nil {
			return errf(CodeInvalid, "%s: fixed scalar takes value only", where)
		}
		return checkExpr(where+" value", sc.Value, refOK)
	case ScalarStream:
		if sc.Value != nil || sc.Table != nil {
			return errf(CodeInvalid, "%s: stream scalar takes seed/min/span only", where)
		}
		if sc.Span == nil {
			return errf(CodeInvalid, "%s: stream scalar requires span", where)
		}
		for _, f := range []struct {
			name string
			e    *Expr
		}{{"seed", sc.Seed}, {"min", sc.Min}, {"span", sc.Span}} {
			if err := checkExpr(where+" "+f.name, f.e, refOK); err != nil {
				return err
			}
		}
		return nil
	case ScalarTable:
		if sc.Value != nil || sc.Seed != nil || sc.Min != nil || sc.Span != nil {
			return errf(CodeInvalid, "%s: table scalar takes table only", where)
		}
		return checkTable(where, sc.Table)
	default:
		return errf(CodeInvalid, "%s: unknown scalar kind %q", where, sc.Kind)
	}
}
