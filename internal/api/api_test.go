package api

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// fakeEngine is a scriptable Classifier for handler and middleware
// tests; the real engine is exercised by the e2e test.
type fakeEngine struct {
	mu      sync.Mutex
	classed []uint64            // sample IDs seen by ClassifyTenantShed
	views   [][]*tensor.Tensor  // uploads seen by ClassifyUpload
	levels  []cluster.ShedLevel // levels granted to each call
	tenants []string            // tenants resolved for each classify call
	block   chan struct{}       // when non-nil, classify blocks until closed
	started chan struct{}       // receives one token per classify entered
	err     error               // forced classify error
	panics  bool                // classify panics
	total   int
	healthy int
}

func newFakeEngine() *fakeEngine { return &fakeEngine{total: 2, healthy: 2} }

func (f *fakeEngine) result(id uint64) cluster.Result {
	return cluster.Result{
		SampleID:      id,
		Class:         3,
		Exit:          wire.ExitLocal,
		Probs:         []float32{0.1, 0.9},
		Entropy:       0.25,
		Latency:       1500 * time.Microsecond,
		ConfigVersion: 7,
	}
}

func (f *fakeEngine) enter(ctx context.Context, level cluster.ShedLevel) error {
	f.mu.Lock()
	f.levels = append(f.levels, level)
	block, started := f.block, f.started
	f.mu.Unlock()
	if started != nil {
		started <- struct{}{}
	}
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if f.panics {
		panic("fake engine exploded")
	}
	return f.err
}

func (f *fakeEngine) ClassifyTenantShed(ctx context.Context, id uint64, tenant string, level cluster.ShedLevel) (cluster.Result, error) {
	if err := f.enter(ctx, level); err != nil {
		return cluster.Result{}, err
	}
	f.mu.Lock()
	f.classed = append(f.classed, id)
	f.tenants = append(f.tenants, tenant)
	f.mu.Unlock()
	return f.result(id), nil
}

func (f *fakeEngine) ClassifyBatchTenantShed(ctx context.Context, ids []uint64, tenant string, level cluster.ShedLevel) ([]cluster.Result, error) {
	if err := f.enter(ctx, level); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.tenants = append(f.tenants, tenant)
	f.mu.Unlock()
	out := make([]cluster.Result, len(ids))
	for i, id := range ids {
		out[i] = f.result(id)
	}
	return out, nil
}

func (f *fakeEngine) ClassifyUpload(ctx context.Context, views []*tensor.Tensor, level cluster.ShedLevel) (cluster.Result, error) {
	if err := f.enter(ctx, level); err != nil {
		return cluster.Result{}, err
	}
	f.mu.Lock()
	f.views = append(f.views, views)
	f.mu.Unlock()
	return f.result(0), nil
}

func (f *fakeEngine) UpstreamReplicas() (int, int)               { return f.total, f.healthy }
func (f *fakeEngine) SetInstrumentation(cluster.Instrumentation) {}

func (f *fakeEngine) Topology() cluster.TopologyConfig {
	return cluster.TopologyConfig{
		Version: 7,
		Slots:   2,
		Present: []bool{true, true},
		Tenants: map[string]cluster.TenantConfig{"alice": {LocalThreshold: 0.5, EdgeThreshold: 0.5}},
	}
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Devices == 0 {
		cfg.Devices = 2
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func classifyBody(id uint64) *bytes.Reader {
	return bytes.NewReader([]byte(fmt.Sprintf(`{"sample_id": %d}`, id)))
}

func doClassify(t *testing.T, ts *httptest.Server, token string, body io.Reader, contentType string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", body)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestClassifyAuthenticated(t *testing.T) {
	fake := newFakeEngine()
	_, ts := newTestServer(t, Config{
		Engine: fake,
		Auth:   NewAuthenticator(map[string]string{"mobile": "s3cret"}),
	})

	// No Authorization header.
	resp := doClassify(t, ts, "", classifyBody(7), "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: status = %d, want 401", resp.StatusCode)
	}
	if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
		t.Errorf("no token: WWW-Authenticate = %q", got)
	}

	// Wrong token.
	resp = doClassify(t, ts, "wrong", classifyBody(7), "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token: status = %d, want 401", resp.StatusCode)
	}

	// Valid token.
	resp = doClassify(t, ts, "s3cret", classifyBody(7), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good token: status = %d, want 200", resp.StatusCode)
	}
	var cr classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.SampleID != 7 || cr.Class != 3 || cr.Exit != "local" || cr.ShedLevel != "normal" {
		t.Errorf("response = %+v", cr)
	}
	if cr.LatencyMs != 1.5 {
		t.Errorf("latency_ms = %v, want 1.5", cr.LatencyMs)
	}
	if got := resp.Header.Get(shedLevelHeader); got != "normal" {
		t.Errorf("%s = %q, want normal", shedLevelHeader, got)
	}
	if fake.classed[0] != 7 {
		t.Errorf("engine saw sample %d, want 7", fake.classed[0])
	}
}

// TestTenantRouting checks that the authenticated client identity is
// resolved as the tenant at admission — threaded into both the
// per-sample and the batch classify paths — and that responses carry the
// topology config version the session ran under.
func TestTenantRouting(t *testing.T) {
	fake := newFakeEngine()
	_, ts := newTestServer(t, Config{
		Engine: fake,
		Auth:   NewAuthenticator(map[string]string{"alice": "tok-a", "bob": "tok-b"}),
	})

	resp := doClassify(t, ts, "tok-a", classifyBody(1), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice classify: status = %d, want 200", resp.StatusCode)
	}
	var cr classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.ConfigVersion != 7 {
		t.Errorf("config_version = %d, want 7", cr.ConfigVersion)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify/batch",
		strings.NewReader(`{"sample_ids": [1, 2]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok-b")
	bresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("bob batch: status = %d, want 200", bresp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 || br.Results[0].ConfigVersion != 7 {
		t.Errorf("batch results = %+v", br.Results)
	}

	fake.mu.Lock()
	tenants := append([]string(nil), fake.tenants...)
	fake.mu.Unlock()
	want := []string{"alice", "bob"}
	if len(tenants) != len(want) {
		t.Fatalf("tenants = %v, want %v", tenants, want)
	}
	for i := range want {
		if tenants[i] != want[i] {
			t.Errorf("tenant[%d] = %q, want %q", i, tenants[i], want[i])
		}
	}
}

// TestAnonymousTenant checks that with authentication disabled every
// request runs under the anonymous tenant (which engines resolve to the
// default pipeline).
func TestAnonymousTenant(t *testing.T) {
	fake := newFakeEngine()
	_, ts := newTestServer(t, Config{Engine: fake})
	resp := doClassify(t, ts, "", classifyBody(4), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if len(fake.tenants) != 1 || fake.tenants[0] != anonymousClient {
		t.Errorf("tenants = %v, want [%s]", fake.tenants, anonymousClient)
	}
}

func TestParseTokens(t *testing.T) {
	a, err := ParseTokens(strings.NewReader(`
# comment line

mobile: token-one
backend: se:cret:with:colons
`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	if c, ok := a.Identify("token-one"); !ok || c != "mobile" {
		t.Errorf("Identify(token-one) = %q, %v", c, ok)
	}
	if c, ok := a.Identify("se:cret:with:colons"); !ok || c != "backend" {
		t.Errorf("Identify(colon token) = %q, %v", c, ok)
	}
	if _, ok := a.Identify("nope"); ok {
		t.Error("unknown token identified")
	}

	for _, bad := range []string{"", "no-colon-here", "a:b\na:c", "  :token", "client:  "} {
		if _, err := ParseTokens(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTokens(%q) accepted", bad)
		}
	}
}

func TestRateLimiting(t *testing.T) {
	// Unit-level: deterministic clock.
	l := newRateLimiter(2, 2) // 2 rps, burst 2
	now := time.Unix(100, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatalf("request %d inside burst rejected", i)
		}
	}
	ok, retry := l.allow("c")
	if ok {
		t.Fatal("request over burst allowed")
	}
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 500ms]", retry)
	}
	// Other clients have their own bucket.
	if ok, _ := l.allow("other"); !ok {
		t.Fatal("fresh client rejected")
	}
	// Tokens accrue with time.
	now = now.Add(time.Second)
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("request after refill rejected")
	}

	// HTTP-level: third request answers 429 with Retry-After.
	_, ts := newTestServer(t, Config{Engine: newFakeEngine(), RatePerSec: 0.5, Burst: 2})
	for i := 0; i < 2; i++ {
		if resp := doClassify(t, ts, "", classifyBody(1), ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
	}
	resp := doClassify(t, ts, "", classifyBody(1), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, {time.Millisecond, "1"}, {time.Second, "1"}, {1100 * time.Millisecond, "2"}, {5 * time.Second, "5"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %s, want %s", tc.d, got, tc.want)
		}
	}
}

func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: newFakeEngine(), MaxBodyBytes: 64})
	big := `{"sample_id": 1, "pad": "` + strings.Repeat("x", 256) + `"}`
	resp := doClassify(t, ts, "", strings.NewReader(big), "")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestMalformedBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: newFakeEngine()})
	for name, body := range map[string]string{
		"not json":          "nonsense{",
		"missing sample_id": `{"other": 1}`,
	} {
		resp := doClassify(t, ts, "", strings.NewReader(body), "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	fake := newFakeEngine()
	fake.panics = true
	_, ts := newTestServer(t, Config{Engine: fake})
	resp := doClassify(t, ts, "", classifyBody(1), "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	// The server survives and answers the next request.
	fake.panics = false
	resp = doClassify(t, ts, "", classifyBody(2), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d, want 200", resp.StatusCode)
	}
}

func TestEngineErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{cluster.ErrCanceled, 499},
		{cluster.ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{cluster.ErrClosed, http.StatusServiceUnavailable},
		{cluster.ErrUploadUnsupported, http.StatusNotImplemented},
		{cluster.ErrCloudUnavailable, http.StatusBadGateway},
		{cluster.ErrNoHealthyReplica, http.StatusBadGateway},
		{fmt.Errorf("cluster: device 3: %w", cluster.ErrModelVersionUnknown), http.StatusBadGateway},
		{fmt.Errorf("mystery"), http.StatusInternalServerError},
	} {
		fake := newFakeEngine()
		fake.err = tc.err
		_, ts := newTestServer(t, Config{Engine: fake})
		resp := doClassify(t, ts, "", classifyBody(1), "")
		if resp.StatusCode != tc.want {
			t.Errorf("%v: status = %d, want %d", tc.err, resp.StatusCode, tc.want)
		}
		ts.Close()
	}
}

func TestHealthAndReadiness(t *testing.T) {
	fake := newFakeEngine()
	_, ts := newTestServer(t, Config{Engine: fake, Auth: NewAuthenticator(map[string]string{"c": "t"})})

	// Probes bypass authentication.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}

	fake.healthy = 0
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no healthy replicas = %d, want 503", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "unavailable" {
		t.Errorf("readyz body = %v", body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: newFakeEngine(), Auth: NewAuthenticator(map[string]string{"mobile": "tok"})})
	if resp := doClassify(t, ts, "tok", classifyBody(1), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify = %d", resp.StatusCode)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ddnn_http_requests_total{client="mobile"} 1`,
		`ddnn_http_shed_requests_total{level="normal"} 1`,
		`ddnn_pool_replicas 2`,
		`ddnn_pool_healthy_replicas 2`,
		`ddnn_http_inflight_requests 0`,
		"ddnn_http_request_seconds_count",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestAdmissionShedProgression(t *testing.T) {
	a := newAdmission(8)
	var releases []func()
	grant := func(want cluster.ShedLevel) {
		t.Helper()
		level, release, ok := a.acquire()
		if !ok {
			t.Fatalf("request %d rejected", len(releases)+1)
		}
		if level != want {
			t.Fatalf("request %d level = %v, want %v", len(releases)+1, level, want)
		}
		releases = append(releases, release)
	}
	for i := 0; i < 4; i++ {
		grant(cluster.ShedNone)
	}
	for i := 0; i < 2; i++ {
		grant(cluster.ShedPreferEdge)
	}
	for i := 0; i < 2; i++ {
		grant(cluster.ShedLocalOnly)
	}
	if _, _, ok := a.acquire(); ok {
		t.Fatal("request beyond capacity admitted")
	}
	for _, r := range releases {
		r()
	}
	if a.current() != 0 {
		t.Fatalf("inflight after release = %d", a.current())
	}
	if level, release, ok := a.acquire(); !ok || level != cluster.ShedNone {
		t.Fatalf("post-drain acquire = %v, %v", level, ok)
	} else {
		release()
	}
}

// TestOverloadShedsBeforeRejecting drives the server to its admission
// bound and checks the contract: every admitted request is answered 200
// (with the shed level declared in the header), and only requests beyond
// MaxInFlight are rejected — with 503 and a Retry-After, never a hung
// connection.
func TestOverloadShedsBeforeRejecting(t *testing.T) {
	const maxInFlight = 4
	fake := newFakeEngine()
	fake.block = make(chan struct{})
	fake.started = make(chan struct{}, maxInFlight)
	_, ts := newTestServer(t, Config{Engine: fake, MaxInFlight: maxInFlight})

	var wg sync.WaitGroup
	codes := make(chan int, maxInFlight)
	for i := 0; i < maxInFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := doClassify(t, ts, "", classifyBody(1), "")
			codes <- resp.StatusCode
		}()
	}
	// Wait until all four requests are inside the engine.
	for i := 0; i < maxInFlight; i++ {
		select {
		case <-fake.started:
		case <-time.After(5 * time.Second):
			t.Fatal("blocked requests did not reach the engine")
		}
	}

	// The server is full: one more request must shed, not queue.
	resp := doClassify(t, ts, "", classifyBody(2), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	close(fake.block)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request answered %d, want 200", code)
		}
	}
}

// TestRawTensorUpload: an on-grid body (every value q/256) reaches the
// engine as per-device views; a short body, a value between grid points,
// one at 1 and a NaN are each answered 400 before the engine sees them.
func TestRawTensorUpload(t *testing.T) {
	const devices = 2
	fake := newFakeEngine()
	_, ts := newTestServer(t, Config{Engine: fake, Devices: devices})

	viewVals := dataset.ImageC * dataset.ImageH * dataset.ImageW
	value := func(i int) float32 { return float32((i/3+5*(i/viewVals))%256) / dataset.GridSteps }
	raw := make([]byte, devices*viewVals*4)
	for i := 0; i < devices*viewVals; i++ {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(value(i)))
	}
	resp := doClassify(t, ts, "", bytes.NewReader(raw), "application/octet-stream")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload = %d: %s", resp.StatusCode, body)
	}
	fake.mu.Lock()
	views := fake.views[0]
	fake.mu.Unlock()
	if len(views) != devices {
		t.Fatalf("engine saw %d views, want %d", len(views), devices)
	}
	for d, v := range views {
		data := v.Data()
		if len(data) != viewVals {
			t.Fatalf("view %d holds %d values, want %d", d, len(data), viewVals)
		}
		if want := value(d * viewVals); data[0] != want {
			t.Errorf("view %d first value = %v, want %v", d, data[0], want)
		}
	}

	// A short body is rejected before touching the engine.
	resp = doClassify(t, ts, "", bytes.NewReader(raw[:100]), "application/octet-stream")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short upload = %d, want 400", resp.StatusCode)
	}
	for _, bad := range []float32{1.5 / dataset.GridSteps, 1, -1.0 / dataset.GridSteps, float32(math.NaN())} {
		body := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(body[4*(viewVals+7):], math.Float32bits(bad))
		resp := doClassify(t, ts, "", bytes.NewReader(body), "application/octet-stream")
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "frame grid") {
			t.Errorf("upload holding %g = %d %s, want 400 naming the frame grid", bad, resp.StatusCode, msg)
		}
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if len(fake.views) != 1 {
		t.Errorf("the engine saw %d uploads, want only the on-grid one", len(fake.views))
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: newFakeEngine(), MaxBatch: 4})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/classify/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := post(`{"sample_ids": [5, 9, 2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d, want 200", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 || br.Results[0].SampleID != 5 || br.Results[2].SampleID != 2 {
		t.Errorf("batch results = %+v", br.Results)
	}
	if br.ShedLevel != "normal" {
		t.Errorf("batch shed_level = %q", br.ShedLevel)
	}

	if resp := post(`{"sample_ids": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"sample_ids": [1,2,3,4,5]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", resp.StatusCode)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: newFakeEngine()})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", classifyBody(1))
	req.Header.Set(requestIDHeader, "caller-supplied-id")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); got != "caller-supplied-id" {
		t.Errorf("echoed request ID = %q", got)
	}

	resp = doClassify(t, ts, "", classifyBody(1), "")
	if got := resp.Header.Get(requestIDHeader); len(got) != 16 {
		t.Errorf("generated request ID = %q, want 16 hex chars", got)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{Devices: 2}); err == nil {
		t.Error("NewServer accepted a nil engine")
	}
	if _, err := NewServer(Config{Engine: newFakeEngine()}); err == nil {
		t.Error("NewServer accepted zero devices")
	}
}
