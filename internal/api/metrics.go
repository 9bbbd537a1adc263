package api

import (
	"net/http"
	"strconv"
	"time"

	"github.com/ddnn/ddnn-go/internal/api/promtext"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Metrics is the front door's instrument catalogue, rendered by
// GET /metrics in the Prometheus text exposition format.
type Metrics struct {
	reg *promtext.Registry

	// Requests counts classify requests by authenticated client.
	Requests *promtext.CounterVec
	// RateLimited counts 429 rejections by client.
	RateLimited *promtext.CounterVec
	// Overloaded counts 503 admission rejections by client.
	Overloaded *promtext.CounterVec
	// Responses counts HTTP responses by status code, across all
	// endpoints.
	Responses *promtext.CounterVec
	// ShedRequests counts admitted classify requests by shed level.
	ShedRequests *promtext.CounterVec
	// Exits counts classified samples by the hierarchy exit that
	// answered them.
	Exits *promtext.CounterVec
	// ExitLatency observes whole-session classification latency
	// (seconds) by the hierarchy exit that answered the sample.
	ExitLatency *promtext.HistogramVec
	// StageLatency observes per-tier round-trip latency (seconds): the
	// local device fan-out under "local", escalations under the tier
	// that ran them.
	StageLatency *promtext.HistogramVec
	// RequestLatency observes whole-request HTTP latency (seconds).
	RequestLatency *promtext.Histogram
	// InFlight gauges currently admitted classify requests.
	InFlight *promtext.Gauge
	// Rollouts counts model rollouts driven through the admin plane by
	// outcome ("completed" / "failed").
	Rollouts *promtext.CounterVec
}

// NewMetrics builds the catalogue on a fresh registry.
func NewMetrics() *Metrics {
	reg := promtext.NewRegistry()
	return &Metrics{
		reg:            reg,
		Requests:       promtext.NewCounterVec(reg, "ddnn_http_requests_total", "Classify requests by client.", "client"),
		RateLimited:    promtext.NewCounterVec(reg, "ddnn_http_rate_limited_total", "Requests rejected with 429 by client.", "client"),
		Overloaded:     promtext.NewCounterVec(reg, "ddnn_http_overload_rejected_total", "Requests rejected with 503 at capacity by client.", "client"),
		Responses:      promtext.NewCounterVec(reg, "ddnn_http_responses_total", "HTTP responses by status code.", "code"),
		ShedRequests:   promtext.NewCounterVec(reg, "ddnn_http_shed_requests_total", "Admitted classify requests by shed level.", "level"),
		Exits:          promtext.NewCounterVec(reg, "ddnn_exit_classifications_total", "Classified samples by hierarchy exit.", "exit"),
		ExitLatency:    promtext.NewHistogramVec(reg, "ddnn_exit_latency_seconds", "Whole-session classification latency by hierarchy exit.", "exit", nil),
		StageLatency:   promtext.NewHistogramVec(reg, "ddnn_stage_latency_seconds", "Per-tier round-trip latency.", "tier", nil),
		RequestLatency: promtext.NewHistogram(reg, "ddnn_http_request_seconds", "Whole-request HTTP latency.", nil),
		InFlight:       promtext.NewGauge(reg, "ddnn_http_inflight_requests", "Currently admitted classify requests."),
		Rollouts:       promtext.NewCounterVec(reg, "ddnn_model_rollouts_total", "Model rollouts by outcome.", "outcome"),
	}
}

// observeModel registers scrape-time gauges over the engine's model
// lifecycle: the active version and the rollout state machine
// (0 idle, 1 rolling, 2 rolled back).
func (m *Metrics) observeModel(ma ModelAdmin) {
	promtext.NewGaugeFunc(m.reg, "ddnn_model_version", "Active model version.", func() float64 {
		return float64(ma.ModelVersion())
	})
	promtext.NewGaugeFunc(m.reg, "ddnn_rollout_state", "Model rollout state (0 idle, 1 rolling, 2 rolled back).", func() float64 {
		return rolloutStateCode(ma.RolloutState())
	})
	promtext.NewGaugeFunc(m.reg, "ddnn_model_versions_loaded", "Model versions held in the registry.", func() float64 {
		return float64(len(ma.ModelVersions()))
	})
}

// Instrumentation returns the engine callbacks that feed the per-exit
// and per-tier instruments; install with Engine.SetInstrumentation.
func (m *Metrics) Instrumentation() cluster.Instrumentation {
	return cluster.Instrumentation{
		ExitObserved: func(exit wire.ExitPoint, latency time.Duration) {
			m.Exits.Inc(exit.String())
			m.ExitLatency.Observe(exit.String(), latency.Seconds())
		},
		StageObserved: func(tier wire.ExitPoint, latency time.Duration) {
			m.StageLatency.Observe(tier.String(), latency.Seconds())
		},
	}
}

// observePool registers scrape-time gauges over the engine's upstream
// replica pool.
func (m *Metrics) observePool(eng Classifier) {
	promtext.NewGaugeFunc(m.reg, "ddnn_pool_replicas", "Upstream tier replicas.", func() float64 {
		total, _ := eng.UpstreamReplicas()
		return float64(total)
	})
	promtext.NewGaugeFunc(m.reg, "ddnn_pool_healthy_replicas", "Healthy upstream tier replicas.", func() float64 {
		_, healthy := eng.UpstreamReplicas()
		return float64(healthy)
	})
}

// observeTopology registers scrape-time gauges over the engine's
// versioned runtime topology, so membership churn and tenant changes are
// visible to operators without polling the engine.
func (m *Metrics) observeTopology(eng Classifier) {
	promtext.NewGaugeFunc(m.reg, "ddnn_topology_config_version", "Current topology config version (bumps on every membership or tenant change).", func() float64 {
		return float64(eng.Topology().Version)
	})
	promtext.NewGaugeFunc(m.reg, "ddnn_topology_device_slots", "Total device slots in the hierarchy.", func() float64 {
		return float64(eng.Topology().Slots)
	})
	promtext.NewGaugeFunc(m.reg, "ddnn_topology_present_devices", "Device slots currently occupied by a registered device.", func() float64 {
		present := 0
		for _, p := range eng.Topology().Present {
			if p {
				present++
			}
		}
		return float64(present)
	})
	promtext.NewGaugeFunc(m.reg, "ddnn_topology_tenants", "Configured tenants.", func() float64 {
		return float64(len(eng.Topology().Tenants))
	})
}

// countResponse records one finished HTTP response.
func (m *Metrics) countResponse(status int, elapsed time.Duration) {
	m.Responses.Inc(strconv.Itoa(status))
	m.RequestLatency.Observe(elapsed.Seconds())
}

// handleMetrics renders the catalogue.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	_ = s.metrics.reg.Render(w)
}
