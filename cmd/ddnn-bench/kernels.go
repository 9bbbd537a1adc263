package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/experiments"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// kernelResult is one benchmark row of the kernels experiment.
type kernelResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// kernelComparison pairs a reference kernel with its optimized
// replacement; the CI smoke fails when the measured speedup falls below
// the comparison's floor.
type kernelComparison struct {
	Label      string  `json:"label"`
	Naive      string  `json:"naive"`
	Optimized  string  `json:"optimized"`
	Speedup    float64 `json:"speedup"`
	MinSpeedup float64 `json:"min_speedup"`
}

// ladderFloor is the speedup floor of each step up the dispatch-path
// ladder (go over naive, simd over go): a step may not lose more than 5%
// measurement noise. Where two paths run the same code for a shape (a
// GEMM narrower than the AVX2 tile), the step measures about 1×.
const ladderFloor = 0.95

// framesFloors are the speedup floors of the integer device block on
// byte frames (ForwardFrames) over the layered forward on the same
// frames as floats, per path: the AVX2 integer tile must clearly win,
// the portable one must not lose; naive is reported, not gated.
var framesFloors = map[tensor.KernelPath]float64{tensor.KernelNaive: 0, tensor.KernelGo: 1.0, tensor.KernelSIMD: 1.3}

// xnorFloors are the speedup floors of the bit-domain passes, per
// dispatch path: the XNOR convolution over the layered forward on
// ternary cloud-block inputs, and the cloud chain — six devices' packed
// features aggregated into bit planes and carried as bits to the logits —
// over unpacking them for the float-in section forward. Neither may lose
// on either path.
var xnorFloors = map[tensor.KernelPath]float64{tensor.KernelGo: 1.0, tensor.KernelSIMD: 1.0}

// forwardSets is how many distinct inputs the forward rows rotate over
// (see experiments.ForwardInputs).
const forwardSets = 64

// kernelReport is what -json serializes (the bench smoke step of
// .github/workflows/ci.yml names the file).
type kernelReport struct {
	Results     []kernelResult     `json:"results"`
	Comparisons []kernelComparison `json:"comparisons"`
}

// sizeTag maps a dispatch-matrix kernel to the shape suffix in its row
// names, so the comparison entries reference the exact result rows.
func sizeTag(kernel string) string {
	switch kernel {
	case "gemm":
		return "32x256x64"
	case "xnor_dot":
		return "1024"
	case "conv_backward_device", "conv_backward_cloud":
		return "b32"
	default:
		return "4096"
	}
}

func benchNs(f func(b *testing.B)) kernelResult {
	r := testing.Benchmark(f)
	return kernelResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// interleaveRounds is how many times benchInterleaved times each row,
// and kernelBenchTime how long each timing lasts.
const (
	interleaveRounds = 5
	kernelBenchTime  = "400ms"
)

// benchInterleaved times the rows of one comparison in alternation —
// A B A B … for interleaveRounds rounds — and keeps each row's fastest
// run. Gated ratios use it: drift on a shared host (frequency, noisy
// neighbours) that lasts seconds or minutes hits both sides of a ratio
// alike instead of one row timed minutes after the other, and the
// minimum drops one-off dips.
func benchInterleaved(fs ...func(b *testing.B)) []kernelResult {
	best := make([]kernelResult, len(fs))
	for round := 0; round < interleaveRounds; round++ {
		for i, f := range fs {
			if r := benchNs(f); round == 0 || r.NsPerOp < best[i].NsPerOp {
				best[i] = r
			}
		}
	}
	return best
}

// runKernels benchmarks the compute kernels and training's convolution
// backwards once per dispatch path and the serving ConvP blocks, writes
// the table to out and, when jsonPath is non-empty, the JSON report. It
// returns an error when a comparison's speedup falls below its floor,
// which is the CI regression gate.
func runKernels(out io.Writer, jsonPath string) error {
	// Each timed run lasts about kernelBenchTime: the gated rows are
	// timed interleaveRounds times each (benchInterleaved).
	testing.Init()
	if err := flag.Set("test.benchtime", kernelBenchTime); err != nil {
		return err
	}
	// Pin the worker pool to one goroutine: the naive references are
	// serial, so the comparisons must measure kernel quality, not the
	// host's core count.
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)
	prevPath := tensor.CurrentKernelPath()
	defer tensor.SetKernelPath(prevPath)
	rng := rand.New(rand.NewSource(1))
	report := kernelReport{}
	record := func(name string, r kernelResult) kernelResult {
		r.Name = name
		report.Results = append(report.Results, r)
		fmt.Fprintf(out, "%-34s %12.0f ns/op %8d B/op %6d allocs/op\n", name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		return r
	}
	// addPaired times rows that a comparison divides in alternation
	// (benchInterleaved) and records them in order; names and fs pair up.
	addPaired := func(names []string, fs ...func(b *testing.B)) []kernelResult {
		rs := benchInterleaved(fs...)
		for i := range rs {
			rs[i] = record(names[i], rs[i])
		}
		return rs
	}

	// Dispatch-path matrix: the same three kernels once per forced path
	// (naive | go | simd where supported), so the report shows exactly
	// what each path buys and CI can gate go ≥ naive and simd ≥ go.
	ga := make([]float32, 32*256)
	gb := make([]float32, 256*64)
	gc := make([]float32, 32*64)
	for i := range ga {
		ga[i] = rng.Float32()*2 - 1
	}
	for i := range gb {
		gb[i] = rng.Float32()*2 - 1
	}
	av := make([]float32, 1024)
	bv := make([]float32, 1024)
	for i := range av {
		av[i] = float32(rng.Intn(2)*2 - 1)
		bv[i] = float32(rng.Intn(2)*2 - 1)
	}
	pa, pb := bnn.PackVector(av), bnn.PackVector(bv)
	packSrc := make([]float32, 4096)
	for i := range packSrc {
		packSrc[i] = rng.Float32()*2 - 1
	}
	// Training's convolution backwards at batch 32 on the paper's
	// architecture: a device block's (parameter gradients only, its
	// input being camera frames) and the first cloud block's, over six
	// devices' CC-concatenated feature maps.
	cfg := core.DefaultConfig()
	devConv := trainedConv(rng, cfg.InputC, cfg.DeviceFilters, cfg.InputH, cfg.InputW)
	cloudConv := trainedConv(rng, cfg.Devices*cfg.DeviceFilters, cfg.CloudFilters, cfg.FeatureH(), cfg.FeatureW())
	// onPath wraps a benchmark body so it runs on one kernel path, which
	// lets rows of different paths alternate.
	onPath := func(path tensor.KernelPath, f func(b *testing.B)) func(b *testing.B) {
		return func(b *testing.B) {
			if err := tensor.SetKernelPath(path); err != nil {
				b.Fatal(err)
			}
			f(b)
		}
	}
	kernels := []struct {
		name string
		f    func(b *testing.B)
	}{
		{"gemm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.Gemm(gc, ga, gb, 32, 256, 64)
			}
		}},
		{"xnor_dot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bnn.XnorDot(pa, pb); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pack_signs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bnn.PackVector(packSrc)
			}
		}},
		{"conv_backward_device", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				devConv.conv.BackwardParams(devConv.grad)
			}
		}},
		{"conv_backward_cloud", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cloudConv.conv.Backward(cloudConv.grad)
			}
		}},
	}
	pathRows := map[string]kernelResult{}
	for _, k := range kernels {
		var names []string
		var fs []func(b *testing.B)
		for _, path := range tensor.KernelPaths() {
			names = append(names, k.name+"_"+sizeTag(k.name)+"["+path.String()+"]")
			fs = append(fs, onPath(path, k.f))
		}
		for i, r := range addPaired(names, fs...) {
			pathRows[k.name+"["+tensor.KernelPaths()[i].String()+"]"] = r
		}
	}
	if err := tensor.SetKernelPath(prevPath); err != nil {
		return err
	}

	// The device block's integer pass on byte frames
	// (convp_device_b32_frames) against the layered forward on the same
	// frames as floats (convp_device_b32) at batch 32, on every path: a
	// second block with the same weights and batch norm, marked a frame
	// block so SyncWeights derives its frame epilogue.
	m := core.MustNewModel(cfg)
	in32, err := experiments.NewForwardInputs(m, forwardSets, 32)
	if err != nil {
		return err
	}
	forward := func(inputs []*tensor.Tensor, f func(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			pool := tensor.NewPool()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Put(f(inputs[i%forwardSets], pool))
			}
		}
	}
	devBlk := bnn.NewConvP(rng, "device", m.Cfg.InputC, m.Cfg.DeviceFilters)
	frameBlk := bnn.NewConvP(rand.New(rand.NewSource(0)), "device.frames", m.Cfg.InputC, m.Cfg.DeviceFilters)
	frameBlk.Frames = true
	frameBlk.Conv.Latent.Value.CopyFrom(devBlk.Conv.Latent.Value)
	frameBlk.SyncWeights()
	frames := make([][]byte, len(in32.Views))
	for i, x := range in32.Views {
		frames[i] = make([]byte, len(x.Data()))
		if err := dataset.FrameBytes(frames[i], x.Data()); err != nil {
			return err
		}
	}
	framesForward := func(b *testing.B) {
		b.ReportAllocs()
		pool := tensor.NewPool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.PutBytes(frameBlk.ForwardFrames(frames[i%forwardSets], 32, m.Cfg.InputH, m.Cfg.InputW, pool))
		}
	}
	var blockCmps []kernelComparison
	for _, path := range tensor.KernelPaths() {
		floor, ok := framesFloors[path]
		if !ok {
			continue
		}
		tag := "[" + path.String() + "]"
		const name = "convp_device_b32"
		rs := addPaired([]string{name + tag, name + "_frames" + tag},
			onPath(path, forward(in32.Views, devBlk.ForwardPooled)), onPath(path, framesForward))
		blockCmps = append(blockCmps, kernelComparison{
			Label:      "frames " + name + " " + path.String(),
			Naive:      name + tag,
			Optimized:  name + "_frames" + tag,
			Speedup:    rs[0].NsPerOp / rs[1].NsPerOp,
			MinSpeedup: floor,
		})
	}
	// The device block's convolution alone (frame_conv_device_b32): the
	// row-sum table kernel over the same batch-32 frames, into one
	// sample's records at a time as ForwardFrames runs it, per path.
	var taps tensor.FrameTaps
	binW := tensor.New(frameBlk.Conv.Latent.Value.Shape()...)
	bnn.Binarize(binW, frameBlk.Conv.Latent.Value)
	taps.Set(binW.Data(), m.Cfg.DeviceFilters, m.Cfg.InputC)
	h, w := m.Cfg.InputH, m.Cfg.InputW
	recDs := (h + 1) * tensor.FrameRowLen(w)
	frameConv := func(b *testing.B) {
		b.ReportAllocs()
		rec := make([]int16, m.Cfg.DeviceFilters*recDs)
		table := make([]uint64, tensor.FrameTableLen(m.Cfg.InputC, w))
		size := m.Cfg.InputC * h * w
		for i := 0; i < b.N; i++ {
			batch := frames[i%forwardSets]
			for s := 0; s < 32; s++ {
				tensor.ConvFrame3x3(tensor.CurrentKernelPath(), rec, recDs, &taps, batch[s*size:(s+1)*size], h, w, table)
			}
		}
	}
	var convNames []string
	var convFs []func(b *testing.B)
	for _, path := range tensor.KernelPaths() {
		convNames = append(convNames, "frame_conv_device_b32["+path.String()+"]")
		convFs = append(convFs, onPath(path, frameConv))
	}
	addPaired(convNames, convFs...)
	// The XNOR convolution against the layered forward on the two cloud
	// blocks, whose inputs are ternary: ForwardPooled on the ±1 maps as
	// floats, and ForwardPacked on the same maps as bit planes, built
	// outside the timed loop.
	b1 := bnn.NewConvP(rng, "cloud.b1", m.Cfg.Devices*m.Cfg.DeviceFilters, m.Cfg.CloudFilters)
	b2 := bnn.NewConvP(rng, "cloud.b2", m.Cfg.CloudFilters, m.Cfg.CloudFilters)
	b2In := make([]*tensor.Tensor, len(in32.Concat))
	for i, x := range in32.Concat {
		b2In[i] = b1.ForwardPooled(x, nil)
	}
	planes := func(xs []*tensor.Tensor) []bnn.Planes {
		out := make([]bnn.Planes, len(xs))
		for i, x := range xs {
			packed := make([]byte, x.Dim(0)*bnn.PackedSize(x.SampleSize()))
			bnn.PackSamplesInto(packed, x)
			out[i] = bnn.PlacePacked(nil, packed, x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3))
		}
		return out
	}
	packedForward := func(blk *bnn.ConvP, inputs []bnn.Planes) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			pool := tensor.NewPool()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.PutBytes(blk.ForwardPacked(inputs[i%forwardSets], pool))
			}
		}
	}
	xnorRows := []struct {
		name   string
		blk    *bnn.ConvP
		inputs []*tensor.Tensor
		planes []bnn.Planes
	}{
		{"convp_cloud_b1_b32", b1, in32.Concat, planes(in32.Concat)},
		{"convp_cloud_b2_b32", b2, b2In, planes(b2In)},
	}
	for _, path := range tensor.KernelPaths() {
		floor, ok := xnorFloors[path]
		if !ok {
			continue
		}
		tag := "[" + path.String() + "]"
		for _, row := range xnorRows {
			rs := addPaired([]string{row.name + "_layered" + tag, row.name + "_xnor" + tag},
				onPath(path, forward(row.inputs, row.blk.ForwardPooled)), onPath(path, packedForward(row.blk, row.planes)))
			blockCmps = append(blockCmps, kernelComparison{
				Label:      "xnor " + row.name + " " + path.String(),
				Naive:      row.name + "_layered" + tag,
				Optimized:  row.name + "_xnor" + tag,
				Speedup:    rs[0].NsPerOp / rs[1].NsPerOp,
				MinSpeedup: floor,
			})
		}
	}
	// The whole cloud section on a session's wire bytes: the devices'
	// packed batch-32 feature maps, all six present, to logits — once
	// unpacked into per-device float maps (zero-filled, as a session
	// holding float tensors drew them) for CloudForwardPooled, whose
	// blocks run the layered forward, once through CloudForwardBits.
	wire := make([][][]byte, len(in32.Feats))
	masks := make([]uint16, 32)
	for i := range masks {
		masks[i] = 1<<uint(m.Cfg.Devices) - 1
	}
	for s, set := range in32.Feats {
		wire[s] = make([][]byte, len(set))
		for d, f := range set {
			wire[s][d] = make([]byte, f.Dim(0)*bnn.PackedSize(f.SampleSize()))
			bnn.PackSamplesInto(wire[s][d], f)
		}
	}
	chain := func(f func(feats [][]byte, pool *tensor.Pool) *tensor.Tensor) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			pool := tensor.NewPool()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Put(f(wire[i%forwardSets], pool))
			}
		}
	}
	unpacked := func(feats [][]byte, pool *tensor.Pool) *tensor.Tensor {
		maps := make([]*tensor.Tensor, len(feats))
		for d, bits := range feats {
			maps[d] = pool.Get(32, m.Cfg.DeviceFilters, m.Cfg.FeatureH(), m.Cfg.FeatureW())
			stride := len(bits) / 32
			for i := 0; i < 32; i++ {
				if err := m.UnpackFeatureInto(maps[d], i, bits[i*stride:(i+1)*stride]); err != nil {
					panic(err)
				}
			}
		}
		logits := m.CloudForwardPooled(maps, nil, pool)
		for _, t := range maps {
			pool.Put(t)
		}
		return logits
	}
	bitsChain := func(feats [][]byte, pool *tensor.Pool) *tensor.Tensor { return m.CloudForwardBits(feats, masks, pool) }
	// The wire entry alone: a session's six batch-32 payloads placed
	// into the cloud's CC bit planes (ConcatFeat.AggregateBits), the
	// first step of bitsChain.
	cc := agg.NewConcatFeat(m.Cfg.Devices)
	aggBits := func(b *testing.B) {
		b.ReportAllocs()
		pool := tensor.NewPool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := bnn.GetPlanes(pool, 32, m.Cfg.Devices*m.Cfg.DeviceFilters, m.Cfg.FeatureH(), m.Cfg.FeatureW())
			cc.AggregateBits(in, wire[i%forwardSets], masks)
			in.Put(pool)
		}
	}
	for _, path := range tensor.KernelPaths() {
		floor, ok := xnorFloors[path]
		if !ok {
			continue
		}
		tag := "[" + path.String() + "]"
		addPaired([]string{"agg_cc_bits_b32" + tag}, onPath(path, aggBits))
		const name = "convp_cloud_chain_b32"
		rs := addPaired([]string{name + "_unpack" + tag, name + "_bits" + tag}, onPath(path, chain(unpacked)), onPath(path, chain(bitsChain)))
		blockCmps = append(blockCmps, kernelComparison{
			Label:      "bits " + name + " " + path.String(),
			Naive:      name + "_unpack" + tag,
			Optimized:  name + "_bits" + tag,
			Speedup:    rs[0].NsPerOp / rs[1].NsPerOp,
			MinSpeedup: floor,
		})
	}
	if err := tensor.SetKernelPath(prevPath); err != nil {
		return err
	}

	report.Comparisons = blockCmps
	// Chain gates over the dispatch-path matrix: each step up the path
	// ladder must not lose more than the 5% noise floor, for each kernel.
	pathNames := tensor.KernelPaths()
	for _, k := range kernels {
		kernel := k.name
		for i := 1; i < len(pathNames); i++ {
			lo, hi := "["+pathNames[i-1].String()+"]", "["+pathNames[i].String()+"]"
			base, step := pathRows[kernel+lo], pathRows[kernel+hi]
			report.Comparisons = append(report.Comparisons, kernelComparison{
				Label:      kernel + " " + pathNames[i].String() + " vs " + pathNames[i-1].String(),
				Naive:      kernel + "_" + sizeTag(kernel) + lo,
				Optimized:  kernel + "_" + sizeTag(kernel) + hi,
				Speedup:    base.NsPerOp / step.NsPerOp,
				MinSpeedup: ladderFloor,
			})
		}
	}
	fmt.Fprintln(out)
	var slow []string
	for _, cmp := range report.Comparisons {
		fmt.Fprintf(out, "%-34s %5.2fx (floor %.2fx)\n", cmp.Label, cmp.Speedup, cmp.MinSpeedup)
		if cmp.Speedup < cmp.MinSpeedup {
			slow = append(slow, cmp.Label)
		}
	}
	fmt.Fprintln(out)

	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n\n", jsonPath)
	}
	if len(slow) > 0 {
		return fmt.Errorf("optimized kernels slower than naive reference: %v", slow)
	}
	return nil
}

// convBackward is a convolution after a training forward, with the
// output gradient its Backward consumes.
type convBackward struct {
	conv *nn.Conv2D
	grad *tensor.Tensor
}

// trainedConv builds a 3×3 stride-1 padding-1 convolution (the ConvP
// block's) from inC to outC channels with ±1 weights, runs its training
// forward on 32 random ±1 h×w maps and draws an output gradient.
func trainedConv(rng *rand.Rand, inC, outC, h, w int) convBackward {
	conv := nn.NewConv2D(rng, "bench", inC, outC, 3, 1, 1, false)
	x := tensor.New(32, inC, h, w)
	for _, t := range []*tensor.Tensor{conv.Weight.Value, x} {
		d := t.Data()
		for i := range d {
			d[i] = float32(rng.Intn(2)*2 - 1)
		}
	}
	conv.Forward(x, true)
	grad := tensor.New(32, outC, h, w)
	grad.FillUniform(rng, -1, 1)
	return convBackward{conv, grad}
}
