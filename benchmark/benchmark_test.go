package main

import (
	"context"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

func TestMain(m *testing.M) {
	logOut = io.Discard
	os.Exit(m.Run())
}

func TestPercentileAndTailRule(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q      float64
		value  float64
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {1, 1000, 0}} {
		v, beyond := percentile(sorted, tc.q)
		if v != tc.value || beyond != tc.beyond {
			t.Errorf("percentile(1..1000, %v) = %v with %d beyond, want %v with %d", tc.q, v, beyond, tc.value, tc.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.99); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, beyond)
	}
	// A p99 needs 1 000 samples to have ten beyond it: one fewer and
	// the report flags it.
	if _, beyond := percentile(sorted[:999], 0.99); beyond >= tailSamples {
		t.Errorf("999 samples leave %d beyond the p99, want fewer than %d", beyond, tailSamples)
	}
}

func TestBestSliceIgnoresAStall(t *testing.T) {
	// 900 operations over 9 s, one per 10 ms at 5 ms latency — except
	// that everything finishing in seconds 3 to 6 took 50 ms.
	start := time.Now()
	var ops []op
	for i := 1; i <= 900; i++ {
		done := time.Duration(i)*10*time.Millisecond - 5*time.Millisecond
		o := op{done: start.Add(done), latencyMs: 5, classes: 32}
		if done > 3*time.Second && done <= 6*time.Second {
			o.latencyMs = 50
		}
		ops = append(ops, o)
	}
	throughput, p50, p99, beyond := bestSlices(ops, start, 9*time.Second)
	if throughput != 3200 || p50 != 5 || p99 != 5 {
		t.Errorf("best slice: %v/s, p50 %v ms, p99 %v ms; want 3200, 5, 5", throughput, p50, p99)
	}
	// 900 operations make 3 slices of 300: three beyond each p99.
	if beyond != 3 {
		t.Errorf("%d operations beyond the p99, want 3", beyond)
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 500, 2*time.Second, testSamples, 0.1)
	b := poissonSchedule(7, 500, 2*time.Second, testSamples, 0.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	c := poissonSchedule(8, 500, 2*time.Second, testSamples, 0.1)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 1 000 expected arrivals: six standard deviations is about 190.
	if n := len(a); n < 810 || n > 1190 {
		t.Errorf("%d arrivals in 2 s at 500/s", n)
	}
	uploads := 0
	for i, arr := range a {
		if i > 0 && arr.at < a[i-1].at {
			t.Fatalf("arrival %d is scheduled before arrival %d", i, i-1)
		}
		if arr.at >= 2*time.Second || arr.sample < 0 || arr.sample >= testSamples {
			t.Fatalf("arrival %d out of range: %+v", i, arr)
		}
		if arr.upload {
			uploads++
		}
	}
	if share := float64(uploads) / float64(len(a)); share < 0.05 || share > 0.15 {
		t.Errorf("upload share %.3f, want about 0.10", share)
	}
}

func TestIDStreamCoversTheSplitEvenly(t *testing.T) {
	s := newIDStream(3, testSamples)
	seen := make(map[uint64]int)
	for _, id := range s.take(3 * testSamples) {
		seen[id]++
	}
	for id := uint64(0); id < testSamples; id++ {
		if seen[id] != 3 {
			t.Fatalf("sample %d drawn %d times in three passes, want 3", id, seen[id])
		}
	}
}

// servingFrames is one frame of every type the serving path puts on a
// node-to-node link, each tagged with its own session.
func servingFrames() []wire.Message {
	ids := []uint64{4, 5}
	bits := make([]byte, 128)
	frames := []wire.Message{
		&wire.CaptureRequest{},
		&wire.LocalSummary{Probs: []float32{0.2, 0.3, 0.5}},
		&wire.FeatureRequest{},
		&wire.FeatureUpload{F: 4, H: 16, W: 16, Bits: bits},
		&wire.ClassifyResult{Probs: []float32{0.2, 0.3, 0.5}},
		&wire.Error{Code: 404, Msg: "no frame"},
		&wire.CloudClassify{Devices: 6, Mask: 0x3f},
		&wire.EdgeClassify{Devices: 6, Mask: 0x3f, Thresholds: []float64{0.8}},
		&wire.EdgeFeature{F: 8, H: 4, W: 4, Bits: make([]byte, 16)},
		&wire.CaptureBatch{SampleIDs: ids},
		&wire.SummaryBatch{Classes: 3, Count: 2, Present: wire.PackPresent([]bool{true, true}), Probs: make([]float32, 6)},
		&wire.FeatureBatchRequest{SampleIDs: ids},
		&wire.FeatureBatch{F: 4, H: 16, W: 16, Count: 2, Bits: make([]byte, 256)},
		&wire.CloudClassifyBatch{Devices: 6, SampleIDs: ids, Masks: []uint16{0x3f, 0x3f}},
		&wire.EdgeClassifyBatch{Devices: 6, SampleIDs: ids, Masks: []uint16{0x3f, 0x3f}, Thresholds: []float64{0.8}},
		&wire.EdgeFeatureBatch{F: 8, H: 4, W: 4, SampleIDs: ids, Bits: make([]byte, 32)},
		&wire.ResultBatch{Verdicts: []wire.BatchVerdict{{SampleID: 4, Exit: wire.ExitCloud, Probs: []float32{1, 0, 0}}}},
	}
	for i, f := range frames {
		session := reflect.ValueOf(f).Elem().FieldByName("Session")
		session.SetUint(uint64(100 + i))
	}
	return frames
}

func TestRecorderDecodesEveryServingFrameAndPairsBySession(t *testing.T) {
	rec := newRecorder(transport.NewMem(), false)
	rec.trace.Store(true)
	ln, err := rec.Listen("device-0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := servingFrames()

	// The listener answers every request frame with a ResultBatch under
	// the request's session, as a node would.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		for {
			msg, err := wire.Decode(conn)
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			reply := &wire.ResultBatch{Session: msg.(wire.Sessioned).SessionID()}
			if _, err := wire.Encode(conn, reply); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	conn, err := rec.Dial(context.Background(), "device-0")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := wire.Encode(conn, f); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.Decode(conn); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	wg.Wait()

	got := make(map[uint64]exchange)
	for _, e := range rec.exchanges() {
		got[e.session] = e
	}
	var written int64
	for i, f := range frames {
		sid := uint64(100 + i)
		e, ok := got[sid]
		if !ok {
			t.Errorf("%v frame (session %d): no exchange recorded", f.MsgType(), sid)
			continue
		}
		if e.hop != hopDev || e.reqType != f.MsgType() || e.repType != wire.TypeResultBatch {
			t.Errorf("session %d: hop %v, request %v, reply %v; want dev, %v, ResultBatch", sid, e.hop, e.reqType, e.repType, f.MsgType())
		}
		if !(e.reqStart <= e.reqArrive && e.reqArrive <= e.repWrite && e.repWrite <= e.repArrive) {
			t.Errorf("session %d: times out of order: %+v", sid, e)
		}
		written += int64(wire.EncodedSize(f))
	}
	if len(got) != len(frames) {
		t.Errorf("%d exchanges for %d request frames", len(got), len(frames))
	}
	c := rec.counters()
	if c.bytes[hopDev][dirRequest] != written {
		t.Errorf("counted %d request bytes, the frames encode to %d", c.bytes[hopDev][dirRequest], written)
	}
	if want := int64(2 * len(frames)); c.frames != want {
		t.Errorf("counted %d frames, want %d", c.frames, want)
	}
}

// A request of several frames followed by one reply is one exchange,
// even when the reads arrive in arbitrary chunks.
func TestRecorderReassemblesChunkedReadsIntoOneExchange(t *testing.T) {
	rec := newRecorder(transport.NewMem(), false)
	rec.trace.Store(true)
	ln, err := rec.Listen("cloud-0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		// Read the two request frames three bytes at a time.
		want := wire.EncodedSize(&wire.CloudClassify{}) + wire.EncodedSize(&wire.FeatureUpload{Bits: make([]byte, 128)})
		buf := make([]byte, 3)
		for read := 0; read < want; {
			n, err := conn.Read(buf[:min(3, want-read)])
			if err != nil {
				done <- err
				return
			}
			read += n
		}
		_, err = wire.Encode(conn, &wire.ClassifyResult{Session: 9, Probs: []float32{1, 0, 0}})
		done <- err
	}()
	conn, err := rec.Dial(context.Background(), "cloud-0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, f := range []wire.Message{&wire.CloudClassify{Session: 9}, &wire.FeatureUpload{Session: 9, Bits: make([]byte, 128)}} {
		if _, err := wire.Encode(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wire.Decode(conn); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ex := rec.exchanges()
	if len(ex) != 1 {
		t.Fatalf("%d exchanges, want 1: %+v", len(ex), ex)
	}
	if e := ex[0]; e.hop != hopUp || e.reqType != wire.TypeCloudClassify || e.repType != wire.TypeClassifyResult || e.session != 9 {
		t.Errorf("exchange %+v", e)
	}
}

func testSplit(t *testing.T) *dataset.Dataset {
	t.Helper()
	dc := dataset.DefaultConfig()
	dc.Train, dc.Test = 1, testSamples
	_, test, err := dataset.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	return test
}

// testModels caches one briefly trained model per architecture: an
// untrained one gives many samples the same entropy, which no threshold
// can split.
var testModels struct {
	sync.Mutex
	byEdge map[bool]*core.Model
}

func testModel(t *testing.T, wl *workload) *core.Model {
	t.Helper()
	testModels.Lock()
	defer testModels.Unlock()
	if m := testModels.byEdge[wl.edge]; m != nil {
		return m
	}
	dc := dataset.DefaultConfig()
	dc.Train, dc.Test = trainSamples, 1
	train, _, err := dataset.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	model, err := newModel(wl)
	if err != nil {
		t.Fatal(err)
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs, tc.BatchSize = 1, evalBatch
	if _, err := model.Train(train, tc); err != nil {
		t.Fatal(err)
	}
	if testModels.byEdge == nil {
		testModels.byEdge = make(map[bool]*core.Model)
	}
	testModels.byEdge[wl.edge] = model
	return model
}

func TestQuantileThresholdsHitTheTargetMix(t *testing.T) {
	test := testSplit(t)
	for _, wl := range workloads {
		if wl.escalateAll {
			continue
		}
		model := testModel(t, wl)
		ref := model.Evaluate(test, nil, evalBatch)
		localT, edgeT, err := mixThresholds(ref, wl.local, wl.edgeShare, wl.cloud)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		var counts exitCounts
		pipeline := cluster.BuildPipeline(model.Cfg, localT, edgeT)
		for id := 0; id < test.Len(); id++ {
			exit, _ := stagedExit(ref, pipeline, id)
			counts[exit]++
		}
		want := exitCounts{}
		want[wire.ExitLocal] = int64(math.Round(wl.local * testSamples))
		want[wire.ExitEdge] = int64(math.Round(wl.edgeShare * testSamples))
		want[wire.ExitCloud] = int64(math.Round(wl.cloud * testSamples))
		if counts != want {
			t.Errorf("%s: exits %v, want %v", wl.name, counts, want)
		}
		if err := wl.checkMix(counts); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
	}
	off := exitCounts{}
	off[wire.ExitLocal], off[wire.ExitCloud] = 63, 37
	if err := workloadByName("wan_single").checkMix(off); err == nil {
		t.Error("a 63/37 mix passed the 60/40 check")
	}
}

func TestPlantedWrongAnswerTripsTheGate(t *testing.T) {
	test := testSplit(t)
	wl := workloadByName("wan_batch")
	model := testModel(t, wl)
	ver := newVerifier(model, test)
	ref := ver.reference(nil, 1)
	localT, edgeT, err := mixThresholds(ref, wl.local, wl.edgeShare, wl.cloud)
	if err != nil {
		t.Fatal(err)
	}
	ver.pipeline = cluster.BuildPipeline(model.Cfg, localT, edgeT)
	present := []bool{true, true, true, true, true, true}
	right := func(id int) answer {
		exit, probs := stagedExit(ref, ver.pipeline, id)
		return answer{refID: id, class: argmax(probs), exit: exit, probs: append([]float32(nil), probs...), present: present, modelVersion: 1}
	}
	for id := 0; id < test.Len(); id++ {
		if err := ver.check(right(id)); err != nil {
			t.Fatalf("the reference's own answer was rejected: %v", err)
		}
	}
	plant := map[string]func(a *answer){
		"one probability bit": func(a *answer) { a.probs[1] = math.Float32frombits(math.Float32bits(a.probs[1]) ^ 1) },
		"class":               func(a *answer) { a.class = (a.class + 1) % dataset.NumClasses },
		"exit":                func(a *answer) { a.exit = a.exit%wire.ExitCloud + 1 },
		"model version":       func(a *answer) { a.modelVersion = 2 },
		"presence mask":       func(a *answer) { a.present = []bool{true, false, true, true, true, true} },
	}
	for what, corrupt := range plant {
		a := right(0)
		corrupt(&a)
		if err := ver.check(a); err == nil {
			t.Errorf("a wrong %s passed the gate", what)
		}
	}
	// A shed request must exit where the tightened pipeline says.
	shed := right(0)
	shed.level = cluster.ShedLocalOnly
	shed.exit, shed.probs = wire.ExitLocal, ref.LocalProbs[0]
	shed.class = argmax(shed.probs)
	if err := ver.check(shed); err != nil {
		t.Errorf("a correct device-only answer was rejected: %v", err)
	}

	var r driveResult
	bad := right(1)
	bad.class = (bad.class + 1) % dataset.NumClasses
	r.attempted = 1
	r.accept(ver, []answer{right(0), bad}, time.Now(), time.Millisecond)
	if r.failed != 1 || r.mismatches != 1 || r.classes != 0 || len(r.ops) != 0 {
		t.Errorf("a batch with one wrong answer: %+v", r)
	}
	if err := vouch(wl, &r, 0); err == nil {
		t.Error("a run with a wrong answer was vouched for")
	}
}

func TestManifestListsTheMetricsTheProgramPrints(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []manifestMetric) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{m.Name, m.Unit}
		}
		return out
	}
	if got := names(man.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v\nprogram prints %v", got, endToEnd)
	}
	if got := names(man.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer = %v\nprogram prints %v", got, perLayer)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
}

// tracedStretch serves the test model for a short traced stretch and
// returns the per-layer numbers.
func tracedStretch(t *testing.T, wl *workload, d time.Duration) (map[string]float64, *driveResult) {
	t.Helper()
	f, err := startFixture(wl, testModel(t, wl), testSplit(t), true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	f.trace.enable(true)
	w := tracedWindow{from: f.rec.now(), untracedPS: 1}
	before := f.rec.counters()
	w.res = f.drive(context.Background(), 1, d)
	w.wire, w.to = f.rec.counters().sub(before), f.rec.now()
	f.trace.enable(false)
	if w.res.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %s", wl.name, w.res.failed, w.res.attempted, w.res.firstFailure)
	}
	if err := wl.checkMix(w.res.exits); err != nil {
		t.Errorf("%s: %v", wl.name, err)
	}
	m, _ := f.trace.layerMetrics(w)
	return m, w.res
}

func TestTraceReconcilesWithSessionLatency(t *testing.T) {
	for _, name := range []string{"mem_batch", "wan_batch"} {
		wl := workloadByName(name)
		m, res := tracedStretch(t, wl, time.Second)
		if got, want := m["cluster.gateway.sessions"], float64(res.attempted); got != want {
			t.Errorf("%s: %v sessions traced for %v calls", name, got, want)
		}
		if got := m["cluster.engine.batch_size_mean"]; got != 32 {
			t.Errorf("%s: batch size %v, want 32", name, got)
		}
		// Over slow links the critical path the trace sees is the session.
		// With both processors saturated the fan-out goroutines also wait
		// for a processor, which no single round trip accounts for.
		if got := m["trace.unattributed_share"]; got < -0.01 || got > 0.6 || (wl.wan && got > 0.10) {
			t.Errorf("%s: %.3f of session latency unattributed", name, got)
		}
		for _, share := range []struct {
			metric string
			want   float64
		}{{"cluster.gateway.exit_local_share", wl.local}, {"cluster.gateway.exit_edge_share", wl.edgeShare}, {"cluster.gateway.exit_cloud_share", wl.cloud}} {
			if got := m[share.metric]; math.Abs(got-share.want) > 0.02 {
				t.Errorf("%s: %s = %.3f, want %.2f", name, share.metric, got, share.want)
			}
		}
		wantRTTs := 3.0 // capture, feature fetch, upstream
		if wl.edge {
			wantRTTs = 4 // and the edge's own trip to the cloud
		}
		if got := m["transport.rtts_per_session"]; math.Abs(got-wantRTTs) > 0.05 {
			t.Errorf("%s: %.2f sequential round trips per session, want %v", name, got, wantRTTs)
		}
		if wl.edge && (m["cluster.edge.requests"] == 0 || m["cluster.cloud.requests"] == 0 || m["transport.ec.rtt_ms_p50"] <= 0) {
			t.Errorf("%s: edge tier not traced: %v edge requests, %v cloud requests", name, m["cluster.edge.requests"], m["cluster.cloud.requests"])
		}
		for _, d := range perLayer {
			if v, ok := m[d.name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
				t.Errorf("%s: %s = %v", name, d.name, v)
			}
		}
	}
}

func TestOpenLoopThroughTheFrontDoor(t *testing.T) {
	// A fifth of the real rate: the race detector slows the system
	// tenfold, and this test is about the plumbing, not the load.
	wl := *workloadByName("http_open")
	wl.ratePerSec = 100
	m, res := tracedStretch(t, &wl, time.Second)
	if res.attempted < 50 || res.classes != res.attempted {
		t.Fatalf("%d requests planned, %d classified", res.attempted, res.classes)
	}
	if got := m["api.requests"]; got != float64(res.attempted) {
		t.Errorf("%v handler spans for %d requests", got, res.attempted)
	}
	if m["api.self_us_p50"] <= 0 || m["api.self_upload_us_p50"] <= m["api.self_us_p50"] {
		t.Errorf("handler self time: %v us by ID, %v us for uploads", m["api.self_us_p50"], m["api.self_upload_us_p50"])
	}
	// The collector lingers up to 2 ms for company: the engine call is
	// longer than the session by about that.
	if got := m["cluster.engine.queue_wait_ms_p50"]; got < 0.5 || got > 10 {
		t.Errorf("queue wait p50 %v ms", got)
	}
	if m["api.non2xx_share"] != 0 || m["loadgen.achieved_share"] != 1 {
		t.Errorf("non-2xx share %v, achieved share %v", m["api.non2xx_share"], m["loadgen.achieved_share"])
	}
}

func TestProbesFillEveryIsolatedMetric(t *testing.T) {
	m := make(map[string]float64)
	if err := runProbes(m, testModel(t, workloadByName("wan_batch")), testSplit(t)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"core.device_forward_us_b1", "core.edge_forward_us_b32", "core.cloud_forward_us_b32", "core.local_decide_us_b32",
		"wire.encode_feature_us_b32", "wire.decode_summary_us_b32", "tensor.gemm_us", "tensor.im2col_us", "bnn.xnor_dot_ns",
		"transport.mem_rtt_us_p50", "transport.sim_overshoot_us_p50",
	} {
		if m[name] <= 0 {
			t.Errorf("%s = %v", name, m[name])
		}
	}
	// Batching amortizes framing: the per-sample overhead on a device
	// link must shrink from batch 1 to batch 32.
	if b1, b32 := m["wire.frame_overhead_bytes_b1"], m["wire.frame_overhead_bytes_b32"]; b1 <= b32 || b32 <= 0 {
		t.Errorf("frame overhead %v B at batch 1, %v B at batch 32", b1, b32)
	}
}
