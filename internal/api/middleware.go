package api

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"time"
)

// statusRecorder captures the response status for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// requestIDHeader carries the per-request correlation ID, echoed in the
// response and threaded through access logs.
const requestIDHeader = "X-Request-Id"

// newRequestID returns a 16-hex-char random correlation ID; the string
// is its one allocation.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// withAccessLog assigns each request an ID (honoring a caller-supplied
// one), logs a structured access line when it finishes and feeds the
// response counters.
func (s *Server) withAccessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.metrics.countResponse(rec.status, elapsed)
		if ctx := r.Context(); s.logger.Enabled(ctx, slog.LevelInfo) {
			s.logger.LogAttrs(ctx, slog.LevelInfo, "http request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

// withRecover converts handler panics into 500s instead of tearing down
// the whole connection (and, pre-1.19 servers, the process). The 500 is
// written only when the handler had not started a response yet — a
// panic after WriteHeader must not write a second status line.
func (s *Server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				s.logger.Error("handler panic", "path", r.URL.Path, "panic", v)
				if rec.status == 0 {
					writeError(w, http.StatusInternalServerError, "internal error")
				}
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// requireAuth wraps a classify handler with authentication, per-client
// rate limiting and the request counter. Probe and scrape endpoints
// stay outside this wrapper.
func (s *Server) requireAuth(next func(w http.ResponseWriter, r *http.Request, client string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		client, ok := s.clientFor(w, r)
		if !ok {
			return
		}
		s.metrics.Requests.Inc(client)
		if s.limiter != nil {
			if allowed, retryAfter := s.limiter.allow(client); !allowed {
				s.metrics.RateLimited.Inc(client)
				w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
				writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
				return
			}
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		next(w, r, client)
	}
}
