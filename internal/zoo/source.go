package zoo

import (
	"fmt"

	"dyncomp/internal/model"
)

// Source is one model as every request path sees it, whether it is a
// registered scenario (Scenario.Source) or an inline spec in the open
// JSON model format (archjson's Spec.Source): a name, parameter-name
// validation, a builder that never panics and the canonical hybrid
// group. Serving and the sweep CLI validate, build and group through
// it, so both kinds of model share one path.
type Source struct {
	// Name is the scenario's registry key or the spec's name.
	Name string
	// Inline reports a spec (true) rather than a registered scenario.
	Inline bool
	// CheckParams rejects parameter names the model does not know.
	CheckParams func(map[string]int64) error
	// Build maps a parameter binding to an architecture. It never
	// panics: invalid configurations come back as errors.
	Build func(Params) (*model.Architecture, error)
	// Group returns the canonical hybrid group of Build(p), nil when
	// the model has none.
	Group func(Params) []string
}

// String names the source for messages: `scenario "x"` or
// `architecture "x"`.
func (s Source) String() string {
	if s.Inline {
		return fmt.Sprintf("architecture %q", s.Name)
	}
	return fmt.Sprintf("scenario %q", s.Name)
}

// Source returns the scenario as a model source. Its Build turns the
// builder's panics — the model layer uses them for invalid
// configurations — and a nil architecture into errors, so one bad
// parameter binding cannot kill the process.
func (s Scenario) Source() Source {
	return Source{
		Name:        s.Name,
		CheckParams: func(p map[string]int64) error { return s.CheckParams(p) },
		Build: func(p Params) (a *model.Architecture, err error) {
			defer func() {
				if r := recover(); r != nil {
					a, err = nil, fmt.Errorf("scenario %q: %v", s.Name, r)
				}
			}()
			if a = s.Build(p); a == nil {
				return nil, fmt.Errorf("scenario %q built no architecture", s.Name)
			}
			return a, nil
		},
		Group: func(p Params) []string { return s.GroupFor("hybrid", p) },
	}
}
