package api

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// shedLevelHeader reports which exit pipeline the admission controller
// granted the request, so callers can observe degradation directly.
const shedLevelHeader = "X-Ddnn-Shed-Level"

// errorResponse is the JSON error envelope of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// classifyRequest is the JSON body of POST /v1/classify.
type classifyRequest struct {
	SampleID *uint64 `json:"sample_id"`
}

// classifyResponse is one classified sample. Present marks the device
// views that contributed to the answer, so callers can observe
// degradation (a dead sensor) per sample.
type classifyResponse struct {
	SampleID  uint64    `json:"sample_id"`
	Class     int       `json:"class"`
	Exit      string    `json:"exit"`
	Probs     []float32 `json:"probs"`
	Entropy   float64   `json:"entropy"`
	Present   []bool    `json:"present,omitempty"`
	LatencyMs float64   `json:"latency_ms"`
	ShedLevel string    `json:"shed_level"`
	// ConfigVersion is the topology config version the session ran
	// under (see docs/ARCHITECTURE.md): the answer is bit-identical to
	// the staged reference for the membership and tenant thresholds of
	// that version.
	ConfigVersion uint64 `json:"config_version"`
	// ModelVersion is the model version the session pinned at start:
	// every hop of the hierarchy ran those weights, even mid-rollout.
	ModelVersion uint64 `json:"model_version"`
}

// batchRequest is the JSON body of POST /v1/classify/batch.
type batchRequest struct {
	SampleIDs []uint64 `json:"sample_ids"`
}

// batchResponse answers a batch in sample_ids order.
type batchResponse struct {
	Results   []classifyResponse `json:"results"`
	ShedLevel string             `json:"shed_level"`
}

func toResponse(res cluster.Result, level cluster.ShedLevel) classifyResponse {
	return classifyResponse{
		SampleID:      res.SampleID,
		Class:         res.Class,
		Exit:          res.Exit.String(),
		Probs:         res.Probs,
		Entropy:       res.Entropy,
		Present:       res.Present,
		LatencyMs:     float64(res.Latency.Microseconds()) / 1000,
		ShedLevel:     level.String(),
		ConfigVersion: res.ConfigVersion,
		ModelVersion:  res.ModelVersion,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// retryAfterSeconds renders a Retry-After value, rounding up so clients
// never retry early; the minimum is 1 second (the header is integral).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 when the MaxBodyBytes limit cut it off, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "malformed body: "+err.Error())
}

// httpStatus maps the engine's typed errors onto response codes; see
// docs/OPERATIONS.md for the full table.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, cluster.ErrCanceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, cluster.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, cluster.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, cluster.ErrUploadUnsupported):
		return http.StatusNotImplemented
	case errors.Is(err, cluster.ErrUploadOffGrid):
		return http.StatusBadRequest
	case errors.Is(err, cluster.ErrCloudUnavailable),
		errors.Is(err, cluster.ErrEdgeUnavailable),
		errors.Is(err, cluster.ErrNoHealthyReplica),
		errors.Is(err, cluster.ErrNoSummaries),
		errors.Is(err, cluster.ErrModelVersionUnknown):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// admit runs the admission controller for one classify request,
// stamping the shed-level header or answering 503 at capacity.
func (s *Server) admit(w http.ResponseWriter, client string) (cluster.ShedLevel, func(), bool) {
	level, release, ok := s.admission.acquire()
	if !ok {
		s.metrics.Overloaded.Inc(client)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server at capacity")
		return 0, nil, false
	}
	s.metrics.InFlight.Inc()
	s.metrics.ShedRequests.Inc(level.String())
	w.Header().Set(shedLevelHeader, level.String())
	return level, func() { release(); s.metrics.InFlight.Dec() }, true
}

// handleClassify answers POST /v1/classify: a JSON {"sample_id": N}
// body classifies a dataset sample; a raw application/octet-stream body
// of Devices×3×32×32 little-endian float32 values classifies an
// uploaded sample (one view per device, concatenated in device order).
//
// The whole body is read and validated before admission, like
// handleClassifyBatch: a slow client trickling a 4MB upload must not
// hold a MaxInFlight slot for its entire transfer, and malformed bodies
// must not count as shed work or carry a shed-level header.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request, client string) {
	var (
		views    []*tensor.Tensor
		sampleID uint64
	)
	if isRawTensor(r) {
		v, perr := s.readViews(r.Body)
		if perr != nil {
			writeBodyError(w, perr)
			return
		}
		views = v
	} else {
		var req classifyRequest
		if perr := json.NewDecoder(r.Body).Decode(&req); perr != nil {
			writeBodyError(w, perr)
			return
		}
		if req.SampleID == nil {
			writeError(w, http.StatusBadRequest, "missing sample_id")
			return
		}
		sampleID = *req.SampleID
	}
	level, release, ok := s.admit(w, client)
	if !ok {
		return
	}
	defer release()
	var (
		res cluster.Result
		err error
	)
	if views != nil {
		res, err = s.cfg.Engine.ClassifyUpload(r.Context(), views, level)
	} else {
		// The authenticated client identity is the tenant: a tenant
		// config registered under the client's name selects its exit
		// thresholds, everyone else runs the default pipeline.
		res, err = s.cfg.Engine.ClassifyTenantShed(r.Context(), sampleID, client, level)
	}
	if err != nil {
		writeError(w, httpStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res, level))
}

// isRawTensor reports whether the request carries a binary tensor body.
func isRawTensor(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return strings.HasPrefix(ct, "application/octet-stream")
}

// readViews parses a raw tensor body into per-device views. The body
// must hold exactly Devices×3×32×32 little-endian float32 values, each
// a camera byte on the frame grid (q/256, q in 0…255): a value off it
// fails with an error wrapping cluster.ErrUploadOffGrid, so the upload
// is refused before admission rather than by the engine.
func (s *Server) readViews(body io.Reader) ([]*tensor.Tensor, error) {
	viewVals := dataset.ImageC * dataset.ImageH * dataset.ImageW
	want := s.cfg.Devices * viewVals * 4
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("reading tensor body: %w", err)
	}
	if len(raw) != want {
		return nil, fmt.Errorf("tensor body is %d bytes, want %d (%d devices × %d×%d×%d float32)",
			len(raw), want, s.cfg.Devices, dataset.ImageC, dataset.ImageH, dataset.ImageW)
	}
	views := make([]*tensor.Tensor, s.cfg.Devices)
	for d := range views {
		v := tensor.New(1, dataset.ImageC, dataset.ImageH, dataset.ImageW)
		data := v.Data()
		base := d * viewVals * 4
		for i := range data {
			bits := binary.LittleEndian.Uint32(raw[base+i*4:])
			data[i] = math.Float32frombits(bits)
			if _, ok := dataset.FrameByte(data[i]); !ok {
				return nil, fmt.Errorf("%w: view %d value %d is %g", cluster.ErrUploadOffGrid, d, i, data[i])
			}
		}
		views[d] = v
	}
	return views, nil
}

// handleClassifyBatch answers POST /v1/classify/batch, riding the
// engine's micro-batching: the whole batch shares the shed level the
// admission controller granted at arrival.
func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request, client string) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	if len(req.SampleIDs) == 0 {
		writeError(w, http.StatusBadRequest, "empty sample_ids")
		return
	}
	if len(req.SampleIDs) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d samples exceeds the %d-sample limit", len(req.SampleIDs), s.cfg.MaxBatch))
		return
	}
	level, release, ok := s.admit(w, client)
	if !ok {
		return
	}
	defer release()
	results, err := s.cfg.Engine.ClassifyBatchTenantShed(r.Context(), req.SampleIDs, client, level)
	if err != nil {
		writeError(w, httpStatus(err), err.Error())
		return
	}
	resp := batchResponse{Results: make([]classifyResponse, len(results)), ShedLevel: level.String()}
	for i, res := range results {
		resp.Results[i] = toResponse(res, level)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports process liveness: the handler answering is the
// signal.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports serving readiness: ready while the upstream
// replica pool has at least one healthy replica to escalate to.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	total, healthy := s.cfg.Engine.UpstreamReplicas()
	body := map[string]any{"replicas": total, "healthy": healthy}
	if healthy == 0 {
		body["status"] = "unavailable"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ready"
	writeJSON(w, http.StatusOK, body)
}
