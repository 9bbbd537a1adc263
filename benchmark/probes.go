package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// The isolated probes time public functions of the lower layers at the
// shapes the workload's model gives them, with nothing else running: one
// worker, a warm tensor pool. They explain the live numbers (how much of
// a node's service time is its forward pass) and move only when that
// layer's code changes.

// probeRounds and probeRoundTime size a probe: the fastest of
// probeRounds rounds, each long enough for the clock's resolution not
// to matter. The fastest, not the median: on the shared reference box
// memory-bound kernels run up to 2.5x slower for minutes at a time, and
// interference only ever adds.
const (
	probeRounds    = 15
	probeRoundTime = 2 * time.Millisecond
)

// timeOp returns the time of one fn call in the fastest round.
func timeOp(fn func()) time.Duration {
	fn() // warm pools and caches
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if d := time.Since(t0); d >= probeRoundTime || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	best := time.Duration(math.MaxInt64)
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		best = min(best, time.Since(t0)/time.Duration(reps))
	}
	return best
}

const probeBatch = 32

// runProbes fills in every isolated per-layer metric.
func runProbes(m map[string]float64, model *core.Model, test *dataset.Dataset) error {
	prev := tensor.MaxWorkers()
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)

	coreProbes(m, model, test)
	if err := wireProbes(m, model.Cfg); err != nil {
		return err
	}
	kernelProbes(m, model.Cfg)
	return transportProbes(m)
}

func coreProbes(m map[string]float64, model *core.Model, test *dataset.Dataset) {
	cfg := model.Cfg
	pool := tensor.NewPool()
	batch := make([]int, probeBatch)
	for i := range batch {
		batch[i] = i
	}
	x1 := test.DeviceView(0, 0)
	x32 := test.DeviceBatch(0, batch)
	deviceForward := func(x *tensor.Tensor) func() {
		return func() {
			feat, exitVec := model.DeviceForwardPooled(0, x, pool)
			pool.Put(feat)
			pool.Put(exitVec)
		}
	}
	m["core.device_forward_us_b1"] = us(timeOp(deviceForward(x1)))
	m["core.device_forward_us_b32"] = us(timeOp(deviceForward(x32)))

	// Every device's features and exit vectors for one sample and for a
	// batch, as the aggregating tiers receive them.
	features := func(indices []int) (feats, exitVecs []*tensor.Tensor) {
		for d := 0; d < cfg.Devices; d++ {
			feat, exitVec := model.DeviceForward(d, test.DeviceBatch(d, indices))
			feats, exitVecs = append(feats, feat), append(exitVecs, exitVec)
		}
		return feats, exitVecs
	}
	feats1, _ := features(batch[:1])
	feats32, exitVecs32 := features(batch)

	cloudForward := func(feats []*tensor.Tensor) func() {
		if !cfg.UseEdge {
			return func() { pool.Put(model.CloudForwardPooled(feats, nil, pool)) }
		}
		edgeFeat, _ := model.EdgeForward(feats, nil)
		return func() { pool.Put(model.CloudForwardFromEdgePooled(edgeFeat, pool)) }
	}
	m["core.cloud_forward_us_b1"] = us(timeOp(cloudForward(feats1)))
	m["core.cloud_forward_us_b32"] = us(timeOp(cloudForward(feats32)))
	if cfg.UseEdge {
		m["core.edge_forward_us_b32"] = us(timeOp(func() {
			edgeFeat, logits := model.EdgeForwardPooled(feats32, nil, pool)
			pool.Put(edgeFeat)
			pool.Put(logits)
		}))
	}

	var entropy float64
	m["core.local_decide_us_b32"] = us(timeOp(func() {
		probs := nn.Softmax(model.LocalAggregate(exitVecs32, nil))
		for i := 0; i < probeBatch; i++ {
			entropy += nn.NormalizedEntropy(probs.Row(i))
		}
	}))
	_ = entropy

	feat := feats1[0]
	bits := model.PackFeature(feat)
	m["core.pack_feature_us"] = us(timeOp(func() { bits = model.PackFeature(feat) }))
	dst := tensor.New(feat.Shape()...)
	m["core.unpack_feature_us"] = us(timeOp(func() { _ = model.UnpackFeatureInto(dst, 0, bits) }))
	m["bnn.pack_signs_us"] = us(timeOp(func() { bits = bnn.PackSigns(feat) }))
}

// wireProbes times encode and decode of the frames that dominate the
// serving path, at batch 1 (single-sample protocol) and batch 32, and
// computes the framing overhead of a fully escalated sample on the
// device links from wire.EncodedSize: a computed number, not a
// measured one.
func wireProbes(m map[string]float64, cfg core.Config) error {
	featBytes := bnn.PackedSize(cfg.DeviceFilters * cfg.FeatureSize())
	f, h, w := uint16(cfg.DeviceFilters), uint16(cfg.FeatureH()), uint16(cfg.FeatureW())
	ids := make([]uint64, probeBatch)
	present := make([]bool, probeBatch)
	verdicts := make([]wire.BatchVerdict, probeBatch)
	for i := range ids {
		ids[i], present[i] = uint64(i), true
		verdicts[i] = wire.BatchVerdict{SampleID: uint64(i), Exit: wire.ExitCloud, Probs: make([]float32, cfg.Classes)}
	}
	summary32 := &wire.SummaryBatch{
		Classes: uint16(cfg.Classes), Count: probeBatch,
		Present: wire.PackPresent(present), Probs: make([]float32, probeBatch*cfg.Classes),
	}
	feature1 := &wire.FeatureUpload{F: f, H: h, W: w, Bits: make([]byte, featBytes)}
	feature32 := &wire.FeatureBatch{F: f, H: h, W: w, Count: probeBatch, Bits: make([]byte, probeBatch*featBytes)}
	result32 := &wire.ResultBatch{Verdicts: verdicts}

	var firstErr error
	encode := func(msg wire.Message) float64 {
		return us(timeOp(func() {
			if _, err := wire.Encode(io.Discard, msg); err != nil && firstErr == nil {
				firstErr = err
			}
		}))
	}
	decode := func(msg wire.Message) float64 {
		var frame bytes.Buffer
		if _, err := wire.Encode(&frame, msg); err != nil && firstErr == nil {
			firstErr = err
		}
		return us(timeOp(func() {
			if _, err := wire.Decode(bytes.NewReader(frame.Bytes())); err != nil && firstErr == nil {
				firstErr = err
			}
		}))
	}
	m["wire.encode_summary_us_b32"] = encode(summary32)
	m["wire.decode_summary_us_b32"] = decode(summary32)
	m["wire.encode_feature_us_b1"] = encode(feature1)
	m["wire.decode_feature_us_b1"] = decode(feature1)
	m["wire.encode_feature_us_b32"] = encode(feature32)
	m["wire.decode_feature_us_b32"] = decode(feature32)
	m["wire.encode_result_us_b32"] = encode(result32)

	// Eq. (1) charges a device 4·|C| bytes for a summary and f·o/8 for a
	// feature map; the rest of what its link carries is framing.
	payload := wire.SummaryPayloadBytes(cfg.Classes) + featBytes
	single := wire.EncodedSize(&wire.CaptureRequest{}) +
		wire.EncodedSize(&wire.LocalSummary{Probs: make([]float32, cfg.Classes)}) +
		wire.EncodedSize(&wire.FeatureRequest{}) +
		wire.EncodedSize(feature1)
	batched := wire.EncodedSize(&wire.CaptureBatch{SampleIDs: ids}) +
		wire.EncodedSize(summary32) +
		wire.EncodedSize(&wire.FeatureBatchRequest{SampleIDs: ids}) +
		wire.EncodedSize(feature32)
	m["wire.frame_overhead_bytes_b1"] = float64(single - payload)
	m["wire.frame_overhead_bytes_b32"] = float64(batched)/probeBatch - float64(payload)
	return firstErr
}

// kernelProbes times the compute kernels at the shapes of the model's
// largest convolution (the first block above the devices) and of a
// device's exit head; the active kernel path is printed with the run.
func kernelProbes(m map[string]float64, cfg core.Config) {
	inC := cfg.Devices * cfg.DeviceFilters // CC aggregation concatenates channels
	filters := cfg.CloudFilters
	if cfg.UseEdge {
		filters = cfg.EdgeFilters
	}
	const kernel, stride, pad = 3, 1, 1
	x := tensor.New(1, inC, cfg.FeatureH(), cfg.FeatureW())
	for i, d := 0, x.Data(); i < len(d); i++ {
		d[i] = float32(i%7) - 3
	}
	rows, cols := tensor.Im2colShape(x, kernel, stride, pad)
	colsBuf := make([]float32, rows*cols)
	m["tensor.im2col_us"] = us(timeOp(func() { tensor.Im2colInto(colsBuf, x, 0, kernel, stride, pad) }))

	weights := make([]float32, filters*rows)
	for i := range weights {
		weights[i] = float32(1 - 2*(i%2)) // ±1, as GemmSign requires
	}
	out := make([]float32, filters*cols)
	m["tensor.gemm_us"] = us(timeOp(func() { tensor.Gemm(out, weights, colsBuf, filters, rows, cols) }))
	m["tensor.gemm_sign_us"] = us(timeOp(func() { tensor.GemmSign(out, weights, colsBuf, filters, rows, cols) }))

	fanIn := make([]float32, cfg.DeviceFilters*cfg.FeatureSize())
	for i := range fanIn {
		fanIn[i] = float32(1 - 2*(i%3%2))
	}
	a, b := bnn.PackVector(fanIn), bnn.PackVector(fanIn)
	dot := 0
	m["bnn.xnor_dot_ns"] = float64(timeOp(func() { dot, _ = bnn.XnorDot(a, b) }))
	_ = dot
}

// transportProbes measures what the in-memory transport and the link
// simulator themselves cost: a 1 KB frame echoed over transport.Mem
// (pipe plus goroutine hand-offs) and how late transport.Simulate
// delivers relative to its configured delay.
func transportProbes(m map[string]float64) error {
	const frame = 1024
	const echoes, delayed = 2000, 100
	profile := transport.LinkProfile{Latency: 2 * time.Millisecond}

	mem := transport.NewMem()
	ln, err := mem.Listen("probe")
	if err != nil {
		return err
	}
	defer ln.Close()
	arrivals := make(chan time.Time, delayed)
	serverErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, frame)
		for i := 0; i < echoes; i++ {
			if _, err := io.ReadFull(conn, buf); err != nil {
				serverErr <- err
				return
			}
			if _, err := conn.Write(buf); err != nil {
				serverErr <- err
				return
			}
		}
		for i := 0; i < delayed; i++ {
			if _, err := io.ReadFull(conn, buf); err != nil {
				serverErr <- err
				return
			}
			arrivals <- time.Now()
		}
		serverErr <- nil
	}()
	conn, err := mem.Dial(context.Background(), "probe")
	if err != nil {
		return err
	}
	defer conn.Close()
	buf := make([]byte, frame)
	rtts := make([]float64, echoes)
	for i := range rtts {
		t0 := time.Now()
		if _, err := conn.Write(buf); err != nil {
			return fmt.Errorf("echo probe: %w", err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			return fmt.Errorf("echo probe: %w", err)
		}
		rtts[i] = us(time.Since(t0))
	}
	m["transport.mem_rtt_us_p50"] = median(rtts)

	sim := transport.Simulate(conn, profile)
	defer sim.Close()
	overshoot := make([]float64, delayed)
	for i := range overshoot {
		t0 := time.Now()
		if _, err := sim.Write(buf); err != nil {
			return fmt.Errorf("delay probe: %w", err)
		}
		select {
		case at := <-arrivals:
			overshoot[i] = us(at.Sub(t0) - profile.Latency)
		case err := <-serverErr:
			return fmt.Errorf("delay probe: peer stopped: %v", err)
		}
	}
	m["transport.sim_overshoot_us_p50"] = median(overshoot)
	return <-serverErr
}
