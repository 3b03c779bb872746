package serve

// This file decodes the inline-architecture side of the API: POST
// /v1/run, POST /v1/sweeps and POST /v1/optimize accept an
// "architecture" object — a spec in the open JSON model format
// (internal/archjson, docs/MODEL_FORMAT.md) — in place of a registered
// scenario name. resolve turns the decoded spec into the zoo.Source a
// scenario resolves to, and both take one path from there. The
// process-wide derivation cache keys on the built model's structural
// shape, so two inline requests carrying the same structure rebind one
// cached temporal dependency graph exactly as repeated scenario
// requests do.

import (
	"net/http"
	"strings"

	"dyncomp/internal/archjson"
)

// hasArchitecture reports whether a request actually carries an inline
// spec — an explicit JSON null counts as absent, like an omitted field.
func hasArchitecture(raw []byte) bool {
	s := strings.TrimSpace(string(raw))
	return s != "" && s != "null"
}

// decodeArchitecture decodes and validates an inline spec, mapping the
// archjson error taxonomy onto the wire codes: oversize specs answer
// 413 like oversize bodies, an unsupported format version gets its own
// code, and everything else is invalid_architecture.
func decodeArchitecture(raw []byte) (*archjson.Spec, *RequestError) {
	spec, err := archjson.Decode(raw)
	if err != nil {
		switch archjson.ErrCode(err) {
		case archjson.CodeTooLarge:
			return nil, requestErrorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "%v", err)
		case archjson.CodeVersion:
			return nil, requestErrorf(http.StatusBadRequest, CodeUnsupportedVersion, "%v", err)
		default:
			return nil, requestErrorf(http.StatusBadRequest, CodeInvalidArchitecture, "%v", err)
		}
	}
	return spec, nil
}
