package api

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"github.com/ddnn/ddnn-go/internal/cluster"
)

// ModelAdmin is the model-lifecycle surface of the engine the admin
// endpoints drive. *cluster.Engine satisfies it.
type ModelAdmin interface {
	RegisterModelBytes(data []byte) (uint64, error)
	RolloutModel(ctx context.Context, version uint64) error
	ModelVersion() uint64
	ModelVersions() []uint64
	RolloutState() string
}

// DefaultMaxModelBytes caps an uploaded model artifact. Model artifacts
// are far larger than classify bodies, so they get their own ceiling
// instead of MaxBodyBytes.
const DefaultMaxModelBytes = 64 << 20

// modelsResponse answers GET /v1/admin/models.
type modelsResponse struct {
	Versions      []uint64 `json:"versions"`
	ActiveVersion uint64   `json:"active_version"`
	RolloutState  string   `json:"rollout_state"`
}

// rolloutRequest is the JSON body of POST /v1/admin/rollout.
type rolloutRequest struct {
	Version uint64 `json:"version"`
}

// requireAdmin wraps an admin handler with authentication against the
// admin token class. Admin credentials are disjoint from serving
// credentials: a serving token never grants lifecycle control, and
// admin requests skip the per-client rate limiter (an operator pushing
// a fix must not queue behind classify traffic).
func (s *Server) requireAdmin(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		header := r.Header.Get("Authorization")
		token, ok := strings.CutPrefix(header, "Bearer ")
		if !ok || token == "" {
			w.Header().Set("WWW-Authenticate", `Bearer realm="ddnn-admin"`)
			writeError(w, http.StatusUnauthorized, "missing or malformed Authorization header")
			return
		}
		if _, ok := s.cfg.AdminAuth.Identify(token); !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="ddnn-admin", error="invalid_token"`)
			writeError(w, http.StatusUnauthorized, "unknown admin token")
			return
		}
		next(w, r)
	}
}

// handleAdminModels answers GET /v1/admin/models with the registry
// inventory and the rollout state.
func (s *Server) handleAdminModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, modelsResponse{
		Versions:      s.cfg.ModelAdmin.ModelVersions(),
		ActiveVersion: s.cfg.ModelAdmin.ModelVersion(),
		RolloutState:  s.cfg.ModelAdmin.RolloutState(),
	})
}

// handleAdminRegister answers POST /v1/admin/models: the octet-stream
// body is a versioned model artifact (ddnn.SaveModelVersion), decoded,
// checksum-verified and registered under its stamped version. 201 with
// the version on success; 400 for corrupt or unsupported artifacts, 409
// for a version collision, 422 for an architecture mismatch, 501 when
// the engine is attached to remote nodes (a version it registered could
// never roll out).
func (s *Server) handleAdminRegister(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	version, err := s.cfg.ModelAdmin.RegisterModelBytes(data)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, cluster.ErrDuplicateModelVersion):
			status = http.StatusConflict
		case errors.Is(err, cluster.ErrModelConfigMismatch):
			status = http.StatusUnprocessableEntity
		case errors.Is(err, cluster.ErrRolloutUnsupported):
			status = http.StatusNotImplemented
		}
		writeError(w, status, err.Error())
		return
	}
	s.logger.Info("model registered", "version", version, "bytes", len(data))
	writeJSON(w, http.StatusCreated, map[string]uint64{"version": version})
}

// handleAdminRollout answers POST /v1/admin/rollout: a checked flip of
// the active version to {"version": N}. 200 when the version is active;
// 404 for an unregistered version, 409 when another rollout is in
// flight, 422 when the canary refused the version (the prior version
// stays active; the response carries the typed failure), 501 when the
// engine is attached to remote nodes.
func (s *Server) handleAdminRollout(w http.ResponseWriter, r *http.Request) {
	var req rolloutRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	if req.Version == 0 {
		writeError(w, http.StatusBadRequest, "missing version")
		return
	}
	err := s.cfg.ModelAdmin.RolloutModel(r.Context(), req.Version)
	if err != nil {
		s.metrics.Rollouts.Inc("failed")
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, cluster.ErrModelVersionUnknown):
			status = http.StatusNotFound
		case errors.Is(err, cluster.ErrRolloutInProgress):
			status = http.StatusConflict
		case errors.Is(err, cluster.ErrRolloutFailed):
			status = http.StatusUnprocessableEntity
		case errors.Is(err, cluster.ErrRolloutUnsupported):
			status = http.StatusNotImplemented
		}
		s.logger.Warn("model rollout failed", "version", req.Version, "err", err)
		writeError(w, status, err.Error())
		return
	}
	s.metrics.Rollouts.Inc("completed")
	s.logger.Info("model rollout completed", "version", req.Version)
	writeJSON(w, http.StatusOK, map[string]any{
		"active_version": s.cfg.ModelAdmin.ModelVersion(),
		"rollout_state":  s.cfg.ModelAdmin.RolloutState(),
	})
}

// mountAdmin wires the admin plane into the mux; called only when both
// an admin authenticator and a ModelAdmin engine surface are configured.
func (s *Server) mountAdmin(mux *http.ServeMux) {
	limit := func(next http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxModelBytes)
			next(w, r)
		}
	}
	mux.HandleFunc("GET /v1/admin/models", s.requireAdmin(s.handleAdminModels))
	mux.HandleFunc("POST /v1/admin/models", s.requireAdmin(limit(s.handleAdminRegister)))
	mux.HandleFunc("POST /v1/admin/rollout", s.requireAdmin(limit(s.handleAdminRollout)))
}

// adminEnabled reports whether the admin plane is mounted.
func (s *Server) adminEnabled() bool {
	return s.cfg.AdminAuth != nil && s.cfg.ModelAdmin != nil
}

// rolloutStateCode maps the engine's rollout state onto the
// ddnn_rollout_state gauge values.
func rolloutStateCode(state string) float64 {
	switch state {
	case cluster.RolloutRolling:
		return 1
	case cluster.RolloutRolledBack:
		return 2
	default:
		return 0
	}
}

var _ ModelAdmin = (*cluster.Engine)(nil)
