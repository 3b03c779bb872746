package serve

// Admission control: who may ask (bearer-token identity), how much
// (per-caller quotas on concurrent jobs and grid points per window),
// and how fast (in-flight load shedding, per-request deadlines). Every
// rejection is a stable error code plus a metrics series, so operators
// see shed load instead of mystery latency.
//
// Endpoints are wired through one of three classes in routes():
//
//	probe  — liveness/metrics: counted only, never authenticated
//	light  — cheap reads (registries, job lookups) and the SSE stream:
//	         counted + auth; no deadline (the per-write
//	         StreamWriteTimeout bounds the stream instead)
//	work   — evaluation (run/optimize/chunks/sweep create): counted +
//	         auth + in-flight shedding + request deadline

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quotas tracks per-caller admission state. It deliberately owns its
// own mutex: job quota release runs from the job's OnSettle hook with
// the job's lock held, and must never contend with the job table's.
type quotas struct {
	mu     sync.Mutex
	jobs   map[string]int // caller -> jobs currently queued or running
	points map[string]*pointWindow
}

// pointWindow is one caller's fixed-window grid-point budget.
type pointWindow struct {
	start time.Time
	used  int
}

func newQuotas() *quotas {
	return &quotas{jobs: map[string]int{}, points: map[string]*pointWindow{}}
}

// reserveJob claims one concurrent-job slot for the caller; limit <= 0
// disables the quota.
func (q *quotas) reserveJob(caller string, limit int) bool {
	if limit <= 0 {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.jobs[caller] >= limit {
		return false
	}
	q.jobs[caller]++
	return true
}

// releaseJob returns a slot claimed by reserveJob. Safe from OnSettle:
// it takes only the quota lock.
func (q *quotas) releaseJob(caller string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.jobs[caller] > 1 {
		q.jobs[caller]--
	} else {
		delete(q.jobs, caller)
	}
}

// reservePoints charges n grid points against the caller's fixed
// window. On rejection it reports how long until the window resets.
func (q *quotas) reservePoints(caller string, n, limit int, window time.Duration, now time.Time) (retryAfter time.Duration, ok bool) {
	if limit <= 0 || n <= 0 {
		return 0, true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	pw := q.points[caller]
	if pw == nil || now.Sub(pw.start) >= window {
		pw = &pointWindow{start: now}
		q.points[caller] = pw
	}
	if pw.used+n > limit {
		return window - now.Sub(pw.start), false
	}
	pw.used += n
	return 0, true
}

// identify resolves the request's caller. With no configured tokens
// every caller passes anonymously (callerID falls back to the remote
// IP); with tokens, a valid "Authorization: Bearer <token>" header maps
// to the token's caller name and anything else is rejected.
func (s *Server) identify(r *http.Request) (string, bool) {
	if len(s.cfg.AuthTokens) == 0 {
		return "", true
	}
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		if name, ok := s.cfg.AuthTokens[strings.TrimSpace(auth[len(prefix):])]; ok {
			return name, true
		}
	}
	return "", false
}

// authenticate rejects requests without a valid bearer token (401
// unauthorized) when auth is configured, and stamps the caller identity
// onto the context and the access log.
func (s *Server) authenticate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		caller, ok := s.identify(r)
		if !ok {
			s.reject("unauthorized")
			WriteError(w, http.StatusUnauthorized, CodeUnauthorized,
				"missing or unknown bearer token")
			return
		}
		if caller != "" {
			setCaller(w, caller)
			r = withCaller(r, caller)
		}
		h(w, r)
	}
}

// shed bounds concurrently in-flight work requests: beyond MaxInFlight
// the server answers 429 overloaded with Retry-After instead of piling
// latency onto every caller.
func (s *Server) shed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if max := s.cfg.MaxInFlight; max > 0 {
			if n := s.inflight.Add(1); n > int64(max) {
				s.inflight.Add(-1)
				s.reject("overloaded")
				w.Header().Set("Retry-After", "1")
				WriteError(w, http.StatusTooManyRequests, CodeOverloaded,
					"server at %d in-flight work requests; retry shortly", max)
				return
			}
			defer s.inflight.Add(-1)
		}
		h(w, r)
	}
}

// deadline bounds the whole request — including the engine run, which
// honors ctx — by RequestTimeout.
func (s *Server) deadline(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.RequestTimeout <= 0 {
			h(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// admitPoints charges n grid points against the caller's window quota.
// A rejection sets Retry-After and returns 429 quota_exceeded.
func (s *Server) admitPoints(w http.ResponseWriter, r *http.Request, n int) *RequestError {
	caller := callerID(r)
	retry, ok := s.quotas.reservePoints(caller, n, s.cfg.QuotaPoints, s.cfg.QuotaWindow, time.Now())
	if ok {
		return nil
	}
	s.reject("quota_points")
	w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)+1))
	return requestErrorf(http.StatusTooManyRequests, CodeQuotaExceeded,
		"caller %q exceeds %d grid points per %s", caller, s.cfg.QuotaPoints, s.cfg.QuotaWindow)
}

// reject counts one admission-control rejection.
func (s *Server) reject(reason string) {
	s.Metrics.Add(metricRejections, fmt.Sprintf("reason=%q", reason), 1)
}

// The endpoint classes (see the package comment above).

func (s *Server) probe(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.countRequests(name, h)
}

func (s *Server) light(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.countRequests(name, s.authenticate(h))
}

func (s *Server) work(name string, h JSONHandler) http.HandlerFunc {
	return s.countRequests(name, s.authenticate(s.shed(s.deadline(h.ServeHTTP))))
}
