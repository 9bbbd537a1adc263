// Package api is the public HTTP front door of a DDNN serving engine:
// an authenticated, rate-limited, observable REST surface over the
// staged device→edge→cloud hierarchy.
//
// The handler chain composes, outermost first: request ID + structured
// access logging, panic recovery (inside the log so panics are logged
// and counted), bearer-token authentication with per-client
// identities, per-client token-bucket rate limiting, and an
// admission controller that bounds in-flight work. Under overload the
// admission controller sheds load gracefully — requests are answered by
// progressively cheaper exits of the hierarchy (normal → prefer-edge →
// device-only) before the server finally answers 503 at capacity — so
// sustained overload degrades answer quality, never availability.
//
// Endpoints:
//
//	POST /v1/classify        one sample (JSON sample_id or raw tensor body)
//	POST /v1/classify/batch  many samples in one call
//	GET  /healthz            process liveness
//	GET  /readyz             upstream replica-pool readiness
//	GET  /metrics            Prometheus text exposition
//	GET  /v1/admin/models    model registry inventory (admin token)
//	POST /v1/admin/models    register a versioned model artifact (admin token)
//	POST /v1/admin/rollout   zero-downtime rolling reload (admin token)
//
// /healthz, /readyz and /metrics bypass authentication and rate
// limiting: probes and scrapers must keep working exactly when the
// serving path is saturated. The /v1/admin endpoints are mounted only
// when Config.AdminAuth is set and authenticate against that separate
// admin token class.
package api

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Config assembles the front door.
type Config struct {
	// Engine is the serving engine behind the API; required.
	Engine Classifier
	// Devices is the number of device views an uploaded sample carries
	// (the model's device count); required for raw tensor bodies.
	Devices int
	// Auth identifies clients by bearer token. nil disables
	// authentication — every request runs as the "anonymous" client.
	Auth *Authenticator
	// AdminAuth identifies operators for the model-lifecycle admin
	// endpoints (POST /v1/admin/models, POST /v1/admin/rollout,
	// GET /v1/admin/models). The admin token class is disjoint from Auth:
	// a serving token never grants lifecycle control. nil leaves the
	// admin plane unmounted.
	AdminAuth *Authenticator
	// ModelAdmin is the lifecycle surface the admin endpoints drive
	// (*cluster.Engine satisfies it); required when AdminAuth is set.
	ModelAdmin ModelAdmin
	// MaxModelBytes caps an uploaded model artifact on
	// POST /v1/admin/models; <= 0 means DefaultMaxModelBytes.
	MaxModelBytes int64
	// RatePerSec is each client's sustained request budget per second;
	// <= 0 disables rate limiting.
	RatePerSec float64
	// Burst is each client's token-bucket depth; <= 0 means a burst
	// equal to max(1, RatePerSec).
	Burst float64
	// MaxInFlight bounds concurrently admitted classify requests; the
	// admission controller sheds to cheaper exits as the bound nears and
	// answers 503 at it. <= 0 means DefaultMaxInFlight.
	MaxInFlight int
	// MaxBodyBytes caps request body size; <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatch caps sample_ids per batch request; <= 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// Logger receives access logs; nil means slog.Default().
	Logger *slog.Logger
}

// Defaults for the zero Config values.
const (
	DefaultMaxInFlight  = 64
	DefaultMaxBodyBytes = 4 << 20
	DefaultMaxBatch     = 256
)

// Classifier is the engine surface the handlers call. FromEngine adapts
// a *cluster.Engine to it; tests substitute fakes.
//
// The front door resolves each request's tenant at admission: the
// authenticated client identity (the name on the bearer token) is the
// tenant, so a tenant configured on the engine via Engine.SetTenant
// under a client's name gives that client its own exit-threshold
// pipeline. Clients without a tenant config — and anonymous requests —
// run the engine's default pipeline.
type Classifier interface {
	ClassifyTenantShed(ctx context.Context, sampleID uint64, tenant string, level cluster.ShedLevel) (cluster.Result, error)
	ClassifyBatchTenantShed(ctx context.Context, sampleIDs []uint64, tenant string, level cluster.ShedLevel) ([]cluster.Result, error)
	ClassifyUpload(ctx context.Context, views []*tensor.Tensor, level cluster.ShedLevel) (cluster.Result, error)
	UpstreamReplicas() (total, healthy int)
	Topology() cluster.TopologyConfig
	SetInstrumentation(cluster.Instrumentation)
}

// Server is the assembled front door; build one with NewServer and
// mount Handler on an http.Server.
type Server struct {
	cfg       Config
	metrics   *Metrics
	auth      *Authenticator
	limiter   *rateLimiter
	admission *admission
	logger    *slog.Logger
}

// NewServer validates the config, wires the metrics catalogue into the
// engine's instrumentation hooks and returns the assembled front door.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("api: Config.Engine is required")
	}
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("api: Config.Devices must be positive")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxModelBytes <= 0 {
		cfg.MaxModelBytes = DefaultMaxModelBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.AdminAuth != nil && cfg.ModelAdmin == nil {
		return nil, fmt.Errorf("api: Config.ModelAdmin is required with AdminAuth")
	}
	m := NewMetrics()
	m.observePool(cfg.Engine)
	m.observeTopology(cfg.Engine)
	if cfg.ModelAdmin != nil {
		m.observeModel(cfg.ModelAdmin)
	}
	cfg.Engine.SetInstrumentation(m.Instrumentation())
	s := &Server{
		cfg:       cfg,
		metrics:   m,
		auth:      cfg.Auth,
		admission: newAdmission(cfg.MaxInFlight),
		logger:    cfg.Logger,
	}
	if cfg.RatePerSec > 0 {
		s.limiter = newRateLimiter(cfg.RatePerSec, cfg.Burst)
	}
	return s, nil
}

// Metrics exposes the server's metrics catalogue (for tests and smoke
// checks; the HTTP surface is /metrics).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the complete front door: routed endpoints wrapped in
// the middleware chain. The access log wraps panic recovery so a
// panicking request still produces an access-log line and a response
// counter increment (the recovered 500 flows through the recorder).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", s.requireAuth(s.handleClassify))
	mux.HandleFunc("POST /v1/classify/batch", s.requireAuth(s.handleClassifyBatch))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.adminEnabled() {
		s.mountAdmin(mux)
	}
	var h http.Handler = mux
	h = s.withRecover(h)
	h = s.withAccessLog(h)
	return h
}
