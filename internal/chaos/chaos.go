// Package chaos is a seeded, randomized fault-injection harness over a
// complete replicated DDNN serving topology: device nodes, edge and
// cloud replica tiers, the gateway, and the HTTP front door, all
// in-process over an in-memory transport wrapped with switchable link
// faults.
//
// While seeded traffic drivers push mixed load through both the HTTP
// API and the engine directly, seeded fault actors concurrently kill
// and restart replicas, silently fail devices, partition and degrade
// links, flap device and replica liveness across the heartbeat
// detector's window, and write corrupt wire frames at live nodes. A
// verifier holds the run to the serving system's contract the whole
// time: every completed classification bit-identical to the staged core
// reference under the observed device-presence mask, typed errors only,
// documented HTTP statuses only, and — after the faults stop — full
// recovery, drained admission counters and no wedged sessions.
//
// Every run is reproducible from its seed: the same seed replays the
// same fault schedule (modulo goroutine scheduling). Failures print
// the seed; replay it with `ddnn-chaos -seed N` or via the fixed-seed
// regression test.
package chaos

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"github.com/ddnn/ddnn-go/internal/api"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/modelio"
	"github.com/ddnn/ddnn-go/internal/transport"
)

// chaosToken authenticates the traffic drivers; a slice of traffic
// deliberately presents a bad token to exercise the 401 path.
const chaosToken = "chaos-token"

// chaosAdminToken authenticates the model-rollout actor against the
// admin plane's separate token class.
const chaosAdminToken = "chaos-admin-token"

// Config sizes and arms one chaos run.
type Config struct {
	// Seed reproduces the run's fault and traffic schedule.
	Seed int64
	// FaultWindow is how long faults and traffic run before the heal,
	// recovery and drain phases. 0 means 2s.
	FaultWindow time.Duration
	// EdgeReplicas and CloudReplicas size the upper tiers; 0 means 2.
	EdgeReplicas int
	// CloudReplicas is the cloud tier's replica count; 0 means 2.
	CloudReplicas int
	// Workers is the number of concurrent traffic drivers; 0 means 4.
	Workers int
	// MaxInFlight is the front door's admission bound; 0 means 8 —
	// deliberately small so chaos traffic exercises shedding and 503s.
	MaxInFlight int
	// DeviceKills arms the actor that kills and restarts devices.
	DeviceKills bool
	// ReplicaKills arms the actor that silently fails and hard-restarts
	// edge and cloud replicas.
	ReplicaKills bool
	// LinkFaults arms the actor that partitions and degrades links.
	LinkFaults bool
	// HealthFlaps arms the actor that flaps the liveness of devices and
	// upstream replicas for durations on both sides of the gateway's
	// heartbeat detection window.
	HealthFlaps bool
	// FrameCorruption arms the actor that writes corrupt wire frames
	// from the fuzz corpus into live listeners.
	FrameCorruption bool
	// DeviceChurn arms the actor that removes and re-admits device
	// slots through the versioned-membership plane — true leave/join
	// cycles that bump the topology config version, unlike DeviceKills'
	// silent failures.
	DeviceChurn bool
	// ModelRollout arms the actor that drives the model lifecycle admin
	// plane under live traffic: registering versioned artifacts
	// (including deliberately corrupt ones), rolling the fleet across
	// versions, and rolling out to a registered artifact with NaN weights,
	// which the rollout canary must refuse. Every completed classification
	// still has to verify bit-identical against the reference weights of
	// the model version its session pinned.
	ModelRollout bool
	// Logger receives node logs; nil discards them (chaos runs are
	// noisy by design).
	Logger *slog.Logger
}

// DefaultConfig arms every fault actor at the default scale.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		FaultWindow:     2 * time.Second,
		EdgeReplicas:    2,
		CloudReplicas:   2,
		Workers:         4,
		MaxInFlight:     8,
		DeviceKills:     true,
		ReplicaKills:    true,
		LinkFaults:      true,
		HealthFlaps:     true,
		FrameCorruption: true,
		DeviceChurn:     true,
		ModelRollout:    true,
	}
}

func (c Config) withDefaults() Config {
	if c.FaultWindow <= 0 {
		c.FaultWindow = 2 * time.Second
	}
	if c.EdgeReplicas <= 0 {
		c.EdgeReplicas = 2
	}
	if c.CloudReplicas <= 0 {
		c.CloudReplicas = 2
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Harness owns one chaos topology: the replicated in-process cluster
// over the fault transport, the HTTP front door on top of it, the
// verifier and the report.
type Harness struct {
	cfg      Config
	model    *core.Model
	ds       *dataset.Dataset
	ft       *faultTransport
	eng      *cluster.Engine
	srv      *api.Server
	ts       *httptest.Server
	client   *http.Client
	verifier *Verifier
	report   *Report
	corpus   [][]byte

	// faultAddrs are every node address faults may target.
	faultAddrs []string
	// sampleN bounds the dataset rows traffic draws from.
	sampleN int

	// artifacts are the pre-generated versioned model artifacts the
	// rollout actor registers and rolls to; nanArtifact is the one whose
	// cloud exit holds a NaN weight, which the rollout canary must refuse.
	artifacts   []modelArtifact
	nanArtifact modelArtifact
}

// New builds the topology: model.Cfg decides two or three tiers. The
// gateway runs with chaos-tuned timeouts (hundreds of milliseconds, so
// a fault window of seconds spans many failure-detection cycles), 50 ms
// heartbeats and micro-batching on, the front door with authentication
// and a small admission bound.
func New(model *core.Model, ds *dataset.Dataset, cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	h := &Harness{
		cfg:     cfg,
		model:   model,
		ds:      ds,
		ft:      newFaultTransport(transport.NewMem()),
		report:  newReport(cfg.Seed, 500*time.Millisecond),
		corpus:  loadCorpus(),
		sampleN: min(ds.Len(), 40),
	}
	h.verifier = newVerifier(model, ds, h.report)

	gcfg := cluster.DefaultGatewayConfig()
	gcfg.DeviceTimeout = 300 * time.Millisecond
	gcfg.EdgeTimeout = 1500 * time.Millisecond
	gcfg.CloudTimeout = 1000 * time.Millisecond
	gcfg.HeartbeatInterval = 50 * time.Millisecond
	ecfg := cluster.EdgeConfig{CloudTimeout: 700 * time.Millisecond, CloudFallback: true}
	eng, err := cluster.NewEngine(model, ds, cluster.EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 12,
		Batch:          cluster.BatchConfig{MaxBatch: 4},
		EdgeReplicas:   cfg.EdgeReplicas,
		CloudReplicas:  cfg.CloudReplicas,
		Edge:           &ecfg,
		Logger:         cfg.Logger,
	}, h.ft)
	if err != nil {
		return nil, fmt.Errorf("chaos: building cluster: %w", err)
	}
	h.eng = eng

	for d := 0; d < model.Cfg.Devices; d++ {
		h.faultAddrs = append(h.faultAddrs, fmt.Sprintf("device-%d", d))
	}
	if model.Cfg.UseEdge {
		for i := 0; i < cfg.EdgeReplicas; i++ {
			h.faultAddrs = append(h.faultAddrs, fmt.Sprintf("edge-%d", i))
		}
	}
	for i := 0; i < cfg.CloudReplicas; i++ {
		h.faultAddrs = append(h.faultAddrs, fmt.Sprintf("cloud-%d", i))
	}

	acfg := api.Config{
		Engine:      api.FromEngine(eng),
		Devices:     model.Cfg.Devices,
		Auth:        api.NewAuthenticator(map[string]string{"chaos": chaosToken}),
		MaxInFlight: cfg.MaxInFlight,
		MaxBatch:    32,
		Logger:      cfg.Logger,
	}
	if cfg.ModelRollout {
		acfg.AdminAuth = api.NewAuthenticator(map[string]string{"chaos-admin": chaosAdminToken})
		acfg.ModelAdmin = eng
		if err := h.buildArtifacts(); err != nil {
			eng.Close()
			return nil, fmt.Errorf("chaos: building model artifacts: %w", err)
		}
	}
	srv, err := api.NewServer(acfg)
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("chaos: building front door: %w", err)
	}
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	h.client = &http.Client{Timeout: 15 * time.Second}
	return h, nil
}

// modelArtifact is one pre-generated versioned model: the decoded
// weights (for the verifier's reference) and the serialized modelio v2
// artifact the rollout actor uploads.
type modelArtifact struct {
	version uint64
	model   *core.Model
	data    []byte
}

// buildArtifacts pre-generates the rollout actor's model inventory:
// seed-variant models of the base architecture under versions 2..6,
// serialized as modelio v2 artifacts, plus version 7, a variant whose
// cloud.exitbn.gamma holds a NaN. Seven versions stay within the
// registry's retention bound. Each good variant is registered with the
// verifier up front so results stamped with its version verify against
// the right reference; version 7 is not, so an answer pinned to it is a
// violation.
func (h *Harness) buildArtifacts() error {
	for v := uint64(2); v <= 7; v++ {
		mcfg := h.model.Cfg
		mcfg.Seed = h.model.Cfg.Seed + 1000*int64(v) + 17
		m := core.MustNewModel(mcfg)
		if v == 7 {
			for _, nt := range m.StateDict() {
				if nt.Name == "cloud.exitbn.gamma" {
					nt.T.Data()[0] = float32(math.NaN())
				}
			}
		}
		var buf bytes.Buffer
		if err := modelio.SaveVersion(&buf, m, v); err != nil {
			return err
		}
		art := modelArtifact{version: v, model: m, data: buf.Bytes()}
		if v == 7 {
			h.nanArtifact = art
			continue
		}
		h.artifacts = append(h.artifacts, art)
		h.verifier.AddModel(v, m)
	}
	return nil
}

// Run executes the full protocol — fault window, heal, recovery wait,
// full-fidelity sweep, drain — and returns the report, which carries
// every invariant violation.
func (h *Harness) Run(ctx context.Context) *Report {
	defer h.ts.Close()
	defer h.closeEngine()

	base := rand.New(rand.NewSource(h.cfg.Seed))
	faultCtx, stopFaults := context.WithTimeout(ctx, h.cfg.FaultWindow)
	defer stopFaults()

	var faults sync.WaitGroup
	runActor := func(armed bool, actor func(context.Context, *rand.Rand)) {
		// Draw the seed even when disarmed so arming one actor never
		// reshuffles the others' schedules for the same master seed.
		seed := base.Int63()
		if !armed {
			return
		}
		faults.Add(1)
		go func() {
			defer faults.Done()
			actor(faultCtx, rand.New(rand.NewSource(seed)))
		}()
	}
	runActor(h.cfg.DeviceKills, h.deviceKiller)
	runActor(h.cfg.ReplicaKills, h.replicaKiller)
	runActor(h.cfg.LinkFaults, h.linkFaulter)
	runActor(h.cfg.HealthFlaps, h.healthFlapper)
	runActor(h.cfg.FrameCorruption, h.frameCorrupter)
	// The churner's seed draw comes after the original five so arming it
	// never reshuffles pre-existing fixed-seed fault schedules.
	runActor(h.cfg.DeviceChurn, h.deviceChurner)
	// Likewise the model roller draws after the churner.
	runActor(h.cfg.ModelRollout, h.modelRoller)

	var traffic sync.WaitGroup
	for w := 0; w < h.cfg.Workers; w++ {
		seed := base.Int63()
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			h.trafficWorker(faultCtx, rand.New(rand.NewSource(seed)))
		}()
	}

	// The watchdog bound is generous: every actor iteration is bounded
	// by request timeouts well under a second.
	if !waitTimeout(&traffic, h.cfg.FaultWindow+30*time.Second) {
		h.report.violate("traffic drivers wedged after the fault window:\n%s", stackDump())
		return h.report
	}
	if !waitTimeout(&faults, 30*time.Second) {
		h.report.violate("fault actors wedged after the fault window:\n%s", stackDump())
		return h.report
	}

	h.heal()
	h.awaitRecovery(15 * time.Second)
	h.sweep(ctx)
	h.awaitQuiescence(5 * time.Second)
	return h.report
}

// heal clears every standing fault and restores full device membership.
func (h *Harness) heal() {
	h.ft.Heal()
	for _, d := range h.eng.Devices() {
		d.SetFailed(false)
	}
	// Re-admit any slot the churner left absent: the sweep phase demands
	// full-fidelity answers, which need the full membership back.
	for slot, present := range h.eng.Topology().Present {
		if present {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := h.eng.AdmitDevice(ctx, slot)
		cancel()
		if err != nil {
			h.report.violate("heal: device slot %d could not be re-admitted: %v", slot, err)
		}
	}
	for _, e := range h.eng.Edges() {
		e.SetFailed(false)
	}
	for _, c := range h.eng.Clouds() {
		c.SetFailed(false)
	}
}

// awaitRecovery waits for the failure detectors to re-admit everything:
// no device down, the full upstream pool healthy.
func (h *Harness) awaitRecovery(deadline time.Duration) {
	gw := h.eng.Gateway()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		down := gw.DownDevices()
		total, healthy := gw.Upstream().Size(), gw.Upstream().Healthy()
		if len(down) == 0 && healthy == total {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	total, healthy := gw.Upstream().Size(), gw.Upstream().Healthy()
	h.report.violate("cluster never recovered after the faults healed: devices down %v, upstream %d/%d healthy",
		gw.DownDevices(), healthy, total)
}

// sweep classifies a slice of the dataset at full fidelity after
// recovery: every sample must complete with the full presence mask and
// verify bit-identical against the unmasked reference. Transient
// partial-mask answers (e.g. a device round trip still missed while the
// links settle after the heal) are retried until the deadline.
func (h *Harness) sweep(ctx context.Context) {
	n := min(h.sampleN, 20)
	for id := 0; id < n; id++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			res, err := h.eng.ClassifyTenantShed(cctx, uint64(id), "", cluster.ShedNone)
			cancel()
			if err == nil && fullMask(res.Present) {
				h.verifier.CheckResult("sweep", res, cluster.ShedNone, id)
				break
			}
			if err != nil {
				h.verifier.CheckError("sweep", err)
			}
			if !time.Now().Before(deadline) {
				h.report.violate("sweep sample %d never completed at full fidelity: err=%v", id, err)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

func fullMask(present []bool) bool {
	for _, p := range present {
		if !p {
			return false
		}
	}
	return len(present) > 0
}

// awaitQuiescence asserts the front door's admission accounting
// returned to zero once traffic stopped.
func (h *Harness) awaitQuiescence(deadline time.Duration) {
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if h.srv.Metrics().InFlight.Value() == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	h.report.violate("admission in-flight gauge stuck at %d after traffic drained", h.srv.Metrics().InFlight.Value())
}

// closeEngine tears the cluster down under a deadlock watchdog: a
// wedged session turns Close into a hang, which is exactly the class
// of bug the harness exists to catch.
func (h *Harness) closeEngine() {
	done := make(chan struct{})
	go func() {
		h.eng.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		h.report.violate("engine close wedged (leaked session?):\n%s", stackDump())
	}
}

// waitTimeout waits for the group and reports whether it finished
// before the deadline.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// stackDump captures every goroutine for wedge diagnostics.
func stackDump() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// trafficWorker drives one seeded stream of mixed operations at the
// topology until the context ends.
func (h *Harness) trafficWorker(ctx context.Context, rng *rand.Rand) {
	for ctx.Err() == nil {
		switch p := rng.Intn(100); {
		case p < 30:
			h.opHTTPClassify(ctx, rng)
		case p < 45:
			h.opHTTPBatch(ctx, rng)
		case p < 55:
			h.opHTTPUpload(ctx, rng)
		case p < 75:
			h.opEngine(ctx, rng)
		case p < 82:
			h.opMalformed(ctx, rng)
		case p < 88:
			h.opBadAuth(ctx, rng)
		case p < 94:
			h.opProbes(ctx)
		default:
			h.opCanceled(ctx, rng)
		}
		sleepCtx(ctx, time.Duration(rng.Intn(5))*time.Millisecond)
	}
}

// do sends one HTTP request with the chaos bearer token.
func (h *Harness) do(ctx context.Context, method, path, contentType string, body []byte, token string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	return h.client.Do(req)
}

// httpResult mirrors the front door's classify response body.
type httpResult struct {
	SampleID      uint64    `json:"sample_id"`
	Class         int       `json:"class"`
	Exit          string    `json:"exit"`
	Probs         []float32 `json:"probs"`
	Entropy       float64   `json:"entropy"`
	Present       []bool    `json:"present"`
	ShedLevel     string    `json:"shed_level"`
	ConfigVersion uint64    `json:"config_version"`
	ModelVersion  uint64    `json:"model_version"`
}

type httpBatchResult struct {
	Results   []httpResult `json:"results"`
	ShedLevel string       `json:"shed_level"`
}

// verifyHTTPResult converts one HTTP result into a cluster result and
// runs the full verifier over it. refID is the dataset row; wantID the
// expected echoed sample ID (refID for dataset traffic; uploads check
// the ID space separately).
func (h *Harness) verifyHTTPResult(src string, hr httpResult, refID int) Outcome {
	exit, ok := parseExit(hr.Exit)
	if !ok {
		h.report.violate("%s: unknown exit %q in response", src, hr.Exit)
		return OutcomeFailed
	}
	level, ok := parseShedLevel(hr.ShedLevel)
	if !ok {
		h.report.violate("%s: unknown shed level %q in response", src, hr.ShedLevel)
		return OutcomeFailed
	}
	res := &cluster.Result{
		SampleID:      hr.SampleID,
		Class:         hr.Class,
		Exit:          exit,
		Probs:         hr.Probs,
		Entropy:       hr.Entropy,
		Present:       append([]bool(nil), hr.Present...),
		ConfigVersion: hr.ConfigVersion,
		ModelVersion:  hr.ModelVersion,
	}
	h.verifier.CheckResult(src, res, level, refID)
	if level == cluster.ShedNone && fullMask(hr.Present) {
		return OutcomeOK
	}
	return OutcomeDegraded
}

// classifyOutcomeForStatus buckets a non-200 front-door answer.
func classifyOutcomeForStatus(code int) Outcome {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return OutcomeRejected
	default:
		return OutcomeFailed
	}
}

func (h *Harness) opHTTPClassify(ctx context.Context, rng *rand.Rand) {
	id := rng.Intn(h.sampleN)
	body, _ := json.Marshal(map[string]uint64{"sample_id": uint64(id)})
	resp, err := h.do(ctx, http.MethodPost, "/v1/classify", "application/json", body, chaosToken)
	if err != nil {
		h.report.Record(OutcomeFailed)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.verifier.CheckStatus("http classify", resp.StatusCode)
		h.report.Record(classifyOutcomeForStatus(resp.StatusCode))
		return
	}
	var hr httpResult
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		h.report.violate("http classify: malformed 200 body: %v", err)
		h.report.Record(OutcomeFailed)
		return
	}
	if hr.SampleID != uint64(id) {
		h.report.violate("http classify: sample %d echoed as %d", id, hr.SampleID)
	}
	h.report.Record(h.verifyHTTPResult("http classify", hr, id))
}

func (h *Harness) opHTTPBatch(ctx context.Context, rng *rand.Rand) {
	ids := make([]uint64, 1+rng.Intn(5))
	for i := range ids {
		ids[i] = uint64(rng.Intn(h.sampleN))
	}
	body, _ := json.Marshal(map[string][]uint64{"sample_ids": ids})
	resp, err := h.do(ctx, http.MethodPost, "/v1/classify/batch", "application/json", body, chaosToken)
	if err != nil {
		h.report.Record(OutcomeFailed)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.verifier.CheckStatus("http batch", resp.StatusCode)
		h.report.Record(classifyOutcomeForStatus(resp.StatusCode))
		return
	}
	var br httpBatchResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		h.report.violate("http batch: malformed 200 body: %v", err)
		h.report.Record(OutcomeFailed)
		return
	}
	if len(br.Results) != len(ids) {
		h.report.violate("http batch: %d results for %d sample_ids", len(br.Results), len(ids))
		h.report.Record(OutcomeFailed)
		return
	}
	for i, hr := range br.Results {
		if hr.SampleID != ids[i] {
			h.report.violate("http batch: position %d echoed sample %d, want %d", i, hr.SampleID, ids[i])
			continue
		}
		h.report.Record(h.verifyHTTPResult("http batch", hr, int(ids[i])))
	}
}

func (h *Harness) opHTTPUpload(ctx context.Context, rng *rand.Rand) {
	id := rng.Intn(min(h.sampleN, 8))
	resp, err := h.do(ctx, http.MethodPost, "/v1/classify", "application/octet-stream", h.uploadBody(id), chaosToken)
	if err != nil {
		h.report.Record(OutcomeFailed)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.verifier.CheckStatus("http upload", resp.StatusCode)
		h.report.Record(classifyOutcomeForStatus(resp.StatusCode))
		return
	}
	var hr httpResult
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		h.report.violate("http upload: malformed 200 body: %v", err)
		h.report.Record(OutcomeFailed)
		return
	}
	// Uploaded samples answer under IDs from the reserved upload space,
	// never a dataset index.
	if hr.SampleID < uint64(1)<<63 {
		h.report.violate("http upload: result ID %d is not in the upload ID space", hr.SampleID)
	}
	// The uploaded views are byte-identical to dataset row id (float32
	// survives the JSON and LE round trips exactly), so the result must
	// verify against that row's reference.
	h.report.Record(h.verifyHTTPResult("http upload", hr, id))
}

// uploadBody encodes dataset row id's device views as the raw
// little-endian tensor body the front door accepts.
func (h *Harness) uploadBody(id int) []byte {
	viewVals := dataset.ImageC * dataset.ImageH * dataset.ImageW
	out := make([]byte, h.model.Cfg.Devices*viewVals*4)
	for d := 0; d < h.model.Cfg.Devices; d++ {
		data := h.ds.DeviceView(d, id).Data()
		base := d * viewVals * 4
		for i, f := range data {
			binary.LittleEndian.PutUint32(out[base+i*4:], math.Float32bits(f))
		}
	}
	return out
}

// opEngine drives the engine directly — no front door — at a random
// shed level, covering the in-process API the HTTP layer wraps.
func (h *Harness) opEngine(ctx context.Context, rng *rand.Rand) {
	level := []cluster.ShedLevel{cluster.ShedNone, cluster.ShedPreferEdge, cluster.ShedLocalOnly}[rng.Intn(3)]
	cctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	if rng.Intn(4) == 0 {
		ids := make([]uint64, 1+rng.Intn(4))
		for i := range ids {
			ids[i] = uint64(rng.Intn(h.sampleN))
		}
		results, err := h.eng.ClassifyBatchTenantShed(cctx, ids, "", level)
		if err != nil {
			h.verifier.CheckError("engine batch", err)
			h.report.Record(OutcomeFailed)
			return
		}
		for i, res := range results {
			if res.SampleID != ids[i] {
				h.report.violate("engine batch: position %d echoed sample %d, want %d", i, res.SampleID, ids[i])
				continue
			}
			h.verifier.CheckResult("engine batch", res, level, int(ids[i]))
			h.report.Record(engineOutcome(res.Present, level))
		}
		return
	}
	id := rng.Intn(h.sampleN)
	res, err := h.eng.ClassifyTenantShed(cctx, uint64(id), "", level)
	if err != nil {
		h.verifier.CheckError("engine classify", err)
		h.report.Record(OutcomeFailed)
		return
	}
	if res.SampleID != uint64(id) {
		h.report.violate("engine classify: sample %d echoed as %d", id, res.SampleID)
	}
	h.verifier.CheckResult("engine classify", res, level, id)
	h.report.Record(engineOutcome(res.Present, level))
}

func engineOutcome(present []bool, level cluster.ShedLevel) Outcome {
	if level == cluster.ShedNone && fullMask(present) {
		return OutcomeOK
	}
	return OutcomeDegraded
}

// opMalformed sends bodies the front door must reject cleanly — never
// with a 500, never holding an admission slot.
func (h *Harness) opMalformed(ctx context.Context, rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0:
		resp, err := h.do(ctx, http.MethodPost, "/v1/classify", "application/json", []byte("{nonsense"), chaosToken)
		h.expectStatus("malformed json", resp, err, http.StatusBadRequest)
	case 1:
		resp, err := h.do(ctx, http.MethodPost, "/v1/classify", "application/octet-stream", []byte{1, 2, 3}, chaosToken)
		h.expectStatus("short tensor body", resp, err, http.StatusBadRequest)
	case 2:
		resp, err := h.do(ctx, http.MethodGet, "/v1/classify", "", nil, chaosToken)
		h.expectStatus("wrong method", resp, err, http.StatusMethodNotAllowed)
	default:
		body, _ := json.Marshal(map[string][]uint64{"sample_ids": {}})
		resp, err := h.do(ctx, http.MethodPost, "/v1/classify/batch", "application/json", body, chaosToken)
		h.expectStatus("empty batch", resp, err, http.StatusBadRequest)
	}
}

func (h *Harness) opBadAuth(ctx context.Context, rng *rand.Rand) {
	body, _ := json.Marshal(map[string]uint64{"sample_id": uint64(rng.Intn(h.sampleN))})
	resp, err := h.do(ctx, http.MethodPost, "/v1/classify", "application/json", body, "wrong-token")
	h.expectStatus("bad token", resp, err, http.StatusUnauthorized)
}

// expectStatus checks an error-path response and files the outcome;
// client-side transport errors under chaos are failures, not
// violations.
func (h *Harness) expectStatus(src string, resp *http.Response, err error, want int) {
	if err != nil {
		h.report.Record(OutcomeFailed)
		return
	}
	defer resp.Body.Close()
	h.verifier.CheckStatus(src, resp.StatusCode, want)
	h.report.Record(OutcomeOK) // an orderly rejection of bad input is correct behavior
}

// opProbes polls the observability endpoints, which must answer under
// any fault load.
func (h *Harness) opProbes(ctx context.Context) {
	for path, want := range map[string][]int{
		"/healthz": {http.StatusOK},
		"/readyz":  {http.StatusOK, http.StatusServiceUnavailable},
		"/metrics": {http.StatusOK},
	} {
		resp, err := h.do(ctx, http.MethodGet, path, "", nil, chaosToken)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		h.verifier.CheckStatus("probe "+path, resp.StatusCode, want...)
	}
}

// opCanceled races a classification against a context that dies within
// a few milliseconds; whatever happens must be a result or a typed
// cancellation error.
func (h *Harness) opCanceled(ctx context.Context, rng *rand.Rand) {
	cctx, cancel := context.WithTimeout(ctx, time.Duration(1+rng.Intn(20))*time.Millisecond)
	defer cancel()
	id := rng.Intn(h.sampleN)
	res, err := h.eng.ClassifyTenantShed(cctx, uint64(id), "", cluster.ShedNone)
	if err != nil {
		h.verifier.CheckError("engine canceled", err)
		h.report.Record(OutcomeFailed)
		return
	}
	h.verifier.CheckResult("engine canceled", res, cluster.ShedNone, id)
	h.report.Record(engineOutcome(res.Present, cluster.ShedNone))
}
