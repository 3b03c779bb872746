package serve

// The resilience middleware shared by the serving fabric. AccessLog is
// the outermost wrap of both dyncomp-serve and the shard coordinator:
// it turns handler panics into structured 500 envelopes (one bad
// request must never take the process or leak an unstructured error)
// and, when a logger is configured, emits one structured access-log
// line per request — method, path, caller, status, latency, bytes.

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"time"
)

// callerCtxKey carries the authenticated caller name through the
// request context.
type callerCtxKey struct{}

// withCaller stamps the authenticated caller onto the request context.
func withCaller(r *http.Request, caller string) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), callerCtxKey{}, caller))
}

// callerID identifies the requester: the authenticated caller name when
// token auth resolved one, the remote IP otherwise — so quotas and logs
// have a stable identity in both modes.
func callerID(r *http.Request) string {
	if c, ok := r.Context().Value(callerCtxKey{}).(string); ok && c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// accessRecorder is the outermost ResponseWriter wrap: it captures the
// status, the bytes written and the caller identity for the access log,
// keeping ResponseController features reachable through Unwrap.
type accessRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	caller string
}

func (ar *accessRecorder) WriteHeader(code int) {
	if ar.status == 0 {
		ar.status = code
	}
	ar.ResponseWriter.WriteHeader(code)
}

func (ar *accessRecorder) Write(b []byte) (int, error) {
	if ar.status == 0 {
		ar.status = http.StatusOK
	}
	n, err := ar.ResponseWriter.Write(b)
	ar.bytes += int64(n)
	return n, err
}

// Unwrap lets http.NewResponseController reach the underlying writer.
func (ar *accessRecorder) Unwrap() http.ResponseWriter { return ar.ResponseWriter }

// setCaller records the authenticated caller on the request's
// accessRecorder. Context flows inward only, so the auth middleware
// cannot hand the identity outward through r — instead it reaches the
// recorder the access log reads through the ResponseWriter.
func setCaller(w http.ResponseWriter, caller string) {
	if ar := recorderOf(w); ar != nil {
		ar.caller = caller
	}
}

// recorderOf walks the ResponseWriter Unwrap chain to the request's
// accessRecorder (nil outside AccessLog).
func recorderOf(w http.ResponseWriter) *accessRecorder {
	for w != nil {
		if ar, ok := w.(*accessRecorder); ok {
			return ar
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return nil
		}
		w = u.Unwrap()
	}
	return nil
}

// AccessLog is the shared outermost HTTP middleware of the serving
// fabric: panic recovery into the uniform error envelope plus
// structured request logging. The zero value is usable — a nil Logger
// disables the log line but keeps the recovery.
type AccessLog struct {
	// Logger receives one Info line per request and one Error line per
	// recovered panic; nil disables logging.
	Logger *slog.Logger
	// OnPanic, when non-nil, observes every recovered handler panic
	// (the servers count them into /metrics).
	OnPanic func()
}

// Wrap returns h behind the recovery and logging layer.
func (al AccessLog) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ar := &accessRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				if al.OnPanic != nil {
					al.OnPanic()
				}
				if ar.status == 0 {
					// Headers not yet out: the client still gets a
					// structured envelope, never a torn response body.
					WriteError(ar, http.StatusInternalServerError, CodeInternal,
						"internal error")
				}
				if al.Logger != nil {
					al.Logger.Error("handler panic",
						"method", r.Method,
						"path", r.URL.Path,
						"panic", fmt.Sprint(rec),
						"stack", string(debug.Stack()))
				}
			}
			if al.Logger != nil {
				caller := ar.caller
				if caller == "" {
					caller = callerID(r)
				}
				status := ar.status
				if status == 0 {
					status = http.StatusOK
				}
				al.Logger.Info("request",
					"method", r.Method,
					"path", r.URL.Path,
					"caller", caller,
					"status", status,
					"latency_ns", time.Since(start).Nanoseconds(),
					"bytes", ar.bytes)
			}
		}()
		h.ServeHTTP(ar, r)
	})
}
