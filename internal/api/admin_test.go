package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/modelio"
	"github.com/ddnn/ddnn-go/internal/transport"
)

// adminRequest sends one admin-plane request with the given bearer token.
func adminRequest(t *testing.T, method, url, token, contentType string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// artifactBytes serializes a seed-variant of the e2e model as a
// versioned artifact.
func artifactBytes(t *testing.T, base *core.Model, seed int64, version uint64) []byte {
	t.Helper()
	cfg := base.Cfg
	cfg.Seed = seed
	m := core.MustNewModel(cfg)
	path := filepath.Join(t.TempDir(), "model.ddnn")
	if err := modelio.SaveFileAtomic(path, m, version); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAdminLifecycle drives the whole admin plane over a real cluster:
// token gating, artifact registration (including corrupt and duplicate
// uploads), inventory listing, a successful rollout, and responses
// reporting the new model version afterwards.
func TestAdminLifecycle(t *testing.T) {
	model, _ := e2eFixture(t)
	_, ts := newE2EServer(t, Config{
		Auth:      NewAuthenticator(map[string]string{"client": "serving-token"}),
		AdminAuth: NewAuthenticator(map[string]string{"ops": "admin-token"}),
	})

	// The admin plane rejects missing, serving-class and unknown tokens.
	for _, token := range []string{"", "serving-token", "wrong"} {
		resp := adminRequest(t, http.MethodGet, ts.URL+"/v1/admin/models", token, "", nil)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: status %d, want 401", token, resp.StatusCode)
		}
	}

	// Fresh engine: version 1 active, idle.
	resp := adminRequest(t, http.MethodGet, ts.URL+"/v1/admin/models", "admin-token", "", nil)
	var inv modelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	if inv.ActiveVersion != 1 || inv.RolloutState != cluster.RolloutIdle || len(inv.Versions) != 1 {
		t.Fatalf("fresh inventory = %+v", inv)
	}

	// A corrupt artifact is rejected with 400 before touching the registry.
	good := artifactBytes(t, model, 909090, 2)
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xFF
	resp = adminRequest(t, http.MethodPost, ts.URL+"/v1/admin/models", "admin-token", "application/octet-stream", corrupt)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload: status %d, want 400", resp.StatusCode)
	}

	// Registering version 2 answers 201 with the stamped version.
	resp = adminRequest(t, http.MethodPost, ts.URL+"/v1/admin/models", "admin-token", "application/octet-stream", good)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d, want 201", resp.StatusCode)
	}
	var created map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created["version"] != 2 {
		t.Fatalf("registered version = %d, want 2", created["version"])
	}

	// Re-registering the same version collides with 409.
	resp = adminRequest(t, http.MethodPost, ts.URL+"/v1/admin/models", "admin-token", "application/octet-stream", good)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", resp.StatusCode)
	}

	// Rolling out an unknown version answers 404.
	resp = adminRequest(t, http.MethodPost, ts.URL+"/v1/admin/rollout", "admin-token", "application/json", []byte(`{"version": 99}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown rollout: status %d, want 404", resp.StatusCode)
	}

	// Rolling out version 2 converges the fleet.
	resp = adminRequest(t, http.MethodPost, ts.URL+"/v1/admin/rollout", "admin-token", "application/json", []byte(`{"version": 2}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollout: status %d, want 200", resp.StatusCode)
	}
	var rolled map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rolled); err != nil {
		t.Fatal(err)
	}
	if v, _ := rolled["active_version"].(float64); v != 2 {
		t.Fatalf("rollout response = %v, want active_version 2", rolled)
	}

	// Serving responses now report the new model version.
	body := strings.NewReader(`{"sample_id": 0}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer serving-token")
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("classify after rollout: status %d", cresp.StatusCode)
	}
	var cr classifyResponse
	if err := json.NewDecoder(cresp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.ModelVersion != 2 {
		t.Fatalf("classify model_version = %d, want 2", cr.ModelVersion)
	}

	// The lifecycle gauges reflect the rollout.
	mresp := adminRequest(t, http.MethodGet, ts.URL+"/metrics", "", "", nil)
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"ddnn_model_version 2", "ddnn_rollout_state 0", `ddnn_model_rollouts_total{outcome="completed"} 1`} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAdminUnmountedWithoutAdminAuth checks the admin plane is absent —
// 404, not 401 — when no admin token class is configured.
func TestAdminUnmountedWithoutAdminAuth(t *testing.T) {
	_, ts := newE2EServer(t, Config{})
	resp := adminRequest(t, http.MethodGet, ts.URL+"/v1/admin/models", "anything", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted admin plane: status %d, want 404", resp.StatusCode)
	}
}

// TestAdminRolloutRefusedByCanary registers an artifact whose cloud exit
// holds a NaN weight and rolls out to it: 422, and the inventory still
// shows version 1 active with the rollout state rolled_back.
func TestAdminRolloutRefusedByCanary(t *testing.T) {
	model, _ := e2eFixture(t)
	_, ts := newE2EServer(t, Config{AdminAuth: NewAuthenticator(map[string]string{"ops": "admin-token"})})

	bad := core.MustNewModel(model.Cfg)
	for _, nt := range bad.StateDict() {
		if nt.Name == "cloud.exitbn.gamma" {
			nt.T.Data()[0] = float32(math.NaN())
		}
	}
	var buf bytes.Buffer
	if err := modelio.SaveVersion(&buf, bad, 2); err != nil {
		t.Fatal(err)
	}
	resp := adminRequest(t, http.MethodPost, ts.URL+"/v1/admin/models", "admin-token", "application/octet-stream", buf.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d, want 201", resp.StatusCode)
	}
	resp = adminRequest(t, http.MethodPost, ts.URL+"/v1/admin/rollout", "admin-token", "application/json", []byte(`{"version": 2}`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("rollout to NaN weights: status %d, want 422", resp.StatusCode)
	}
	resp = adminRequest(t, http.MethodGet, ts.URL+"/v1/admin/models", "admin-token", "", nil)
	var inv modelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	if inv.ActiveVersion != 1 || inv.RolloutState != cluster.RolloutRolledBack {
		t.Fatalf("after refusal: %+v, want version 1 active and state %q", inv, cluster.RolloutRolledBack)
	}
}

// TestAdminRolloutOnAttachedEngine: an engine attached to standalone
// nodes (each holding its own registry) can neither register an
// artifact nor roll one out — both answer 501 Not Implemented, never a
// 201 for a version that could not go live.
func TestAdminRolloutOnAttachedEngine(t *testing.T) {
	model, test := e2eFixture(t)
	tr := transport.NewMem()
	devices := make([]string, model.Cfg.Devices)
	for d := range devices {
		dev := cluster.NewDevice(model, 1, d, cluster.DatasetFeed(test, d), quietLogger())
		devices[d] = fmt.Sprintf("device-%d", d)
		if err := dev.Serve(tr, devices[d]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
	}
	cloud := cluster.NewCloud(model, 1, quietLogger())
	if err := cloud.Serve(tr, "cloud"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })
	eng, err := cluster.AttachEngine(context.Background(), model, cluster.EngineConfig{Gateway: cluster.DefaultGatewayConfig(), Logger: quietLogger()}, tr, devices, []string{"cloud"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := NewServer(Config{
		Engine:     FromEngine(eng),
		Devices:    model.Cfg.Devices,
		AdminAuth:  NewAuthenticator(map[string]string{"ops": "admin-token"}),
		ModelAdmin: eng,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := adminRequest(t, http.MethodPost, ts.URL+"/v1/admin/models", "admin-token", "application/octet-stream", artifactBytes(t, model, 4242, 2))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("register on an attached engine: status %d, want 501", resp.StatusCode)
	}
	resp = adminRequest(t, http.MethodPost, ts.URL+"/v1/admin/rollout", "admin-token", "application/json", []byte(`{"version": 2}`))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("rollout on an attached engine: status %d, want 501", resp.StatusCode)
	}
}
