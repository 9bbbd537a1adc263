package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/experiments"
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
// the comparison's floor. Kernel rewrites must beat their reference
// outright (floor 1.0); the pooled serving forwards run the same
// compute as their unpooled twins and only shed allocations, so they
// get a small tolerance (pooledFloor) for run-to-run scheduler noise —
// BENCH_pr4.json recorded a 40% pooled-cloud "regression" that five
// repeated runs could not reproduce (see ROADMAP item 4).
type kernelComparison struct {
	Label      string  `json:"label"`
	Naive      string  `json:"naive"`
	Optimized  string  `json:"optimized"`
	Speedup    float64 `json:"speedup"`
	MinSpeedup float64 `json:"min_speedup"`
}

// pooledFloor is the speedup floor for pooled-vs-unpooled comparisons:
// equal-compute paths are allowed 5% measurement noise.
const pooledFloor = 0.95

// fusedFloors are the speedup floors of the fused ConvP pass over the
// layered composition, per dispatch path: the SIMD pass must clearly
// win (it replaces a scalar pool and a materialised im2col), the
// portable pass must not lose.
var fusedFloors = map[tensor.KernelPath]float64{tensor.KernelGo: 1.0, tensor.KernelSIMD: 1.3}

// xnorFloors are the speedup floors of the bit-domain passes, per
// dispatch path: the XNOR convolution over the float sign tile on
// ternary cloud-block inputs, and the cloud chain — six devices' packed
// features aggregated into bit planes and carried as bits to the logits —
// over unpacking them for the float-in section forward. Neither may lose
// on either path.
var xnorFloors = map[tensor.KernelPath]float64{tensor.KernelGo: 1.0, tensor.KernelSIMD: 1.0}

// forwardSets is how many distinct inputs the forward rows rotate over
// (see experiments.ForwardInputs).
const forwardSets = 64

// kernelReport is what -json serializes (BENCH_pr37.json in CI).
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

// benchNsBest measures f several times and keeps the fastest run.
// Gated comparisons use this: the minimum is robust against one-off
// frequency dips and scheduler migrations that a single 1-second run
// on shared CI hardware can absorb entirely.
func benchNsBest(f func(b *testing.B)) kernelResult {
	best := benchNs(f)
	for i := 1; i < 3; i++ {
		if r := benchNs(f); r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	return best
}

// runKernels benchmarks the compute kernels once per dispatch path, the
// per-tier section forwards and the fused ConvP pass, writes the table
// to out and, when jsonPath is non-empty, the JSON report. It returns an
// error when a comparison's speedup falls below its floor, which is the
// CI regression gate.
func runKernels(out io.Writer, jsonPath string) error {
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
		fmt.Fprintf(out, "%-28s %12.0f ns/op %8d B/op %6d allocs/op\n", name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		return r
	}
	add := func(name string, f func(b *testing.B)) kernelResult {
		return record(name, benchNs(f))
	}
	addBest := func(name string, f func(b *testing.B)) kernelResult {
		return record(name, benchNsBest(f))
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
	pathRows := map[string]kernelResult{}
	for _, path := range tensor.KernelPaths() {
		if err := tensor.SetKernelPath(path); err != nil {
			return err
		}
		tag := "[" + path.String() + "]"
		pathRows["gemm"+tag] = addBest("gemm_32x256x64"+tag, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.Gemm(gc, ga, gb, 32, 256, 64)
			}
		})
		pathRows["xnor_dot"+tag] = addBest("xnor_dot_1024"+tag, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bnn.XnorDot(pa, pb); err != nil {
					b.Fatal(err)
				}
			}
		})
		pathRows["pack_signs"+tag] = addBest("pack_signs_4096"+tag, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bnn.PackVector(packSrc)
			}
		})
	}
	if err := tensor.SetKernelPath(prevPath); err != nil {
		return err
	}

	// Per-tier section forwards on the paper's architecture, plus the
	// pooled serving path, rotating over distinct dataset frames.
	m := core.MustNewModel(core.DefaultConfig())
	in1, err := experiments.NewForwardInputs(m, forwardSets, 1)
	if err != nil {
		return err
	}
	devFwd := add("device_forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.DeviceForward(0, in1.Views[i%forwardSets])
		}
	})
	devFwdPooled := add("device_forward_pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := tensor.NewPool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feat, exitVec := m.DeviceForwardPooled(0, in1.Views[i%forwardSets], pool)
			pool.Put(exitVec)
			pool.Put(feat)
		}
	})
	cloudFwd := add("cloud_forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.CloudForward(in1.Feats[i%forwardSets], nil)
		}
	})
	cloudFwdPooled := add("cloud_forward_pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := tensor.NewPool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Put(m.CloudForwardPooled(in1.Feats[i%forwardSets], nil, pool))
		}
	})

	// The fused ConvP pass against the layered composition at batch 32,
	// on the device block's and the first cloud block's geometry, once
	// per path that has a fused kernel. Both take float maps, so the
	// cloud block's ternary input runs the float tile on both sides.
	in32, err := experiments.NewForwardInputs(m, forwardSets, 32)
	if err != nil {
		return err
	}
	convpRows := []struct {
		name   string
		blk    *bnn.ConvP
		inputs []*tensor.Tensor
	}{
		{"convp_device_b32", bnn.NewConvP(rng, "device", m.Cfg.InputC, m.Cfg.DeviceFilters), in32.Views},
		{"convp_cloud_b32", bnn.NewConvP(rng, "cloud", m.Cfg.Devices*m.Cfg.DeviceFilters, m.Cfg.CloudFilters), in32.Concat},
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
	var fusedCmps []kernelComparison
	for _, path := range tensor.KernelPaths() {
		floor, ok := fusedFloors[path]
		if !ok {
			continue
		}
		if err := tensor.SetKernelPath(path); err != nil {
			return err
		}
		tag := "[" + path.String() + "]"
		for _, row := range convpRows {
			layered := addBest(row.name+"_layered"+tag, forward(row.inputs, row.blk.ForwardLayered))
			fused := addBest(row.name+tag, forward(row.inputs, row.blk.ForwardPooled))
			fusedCmps = append(fusedCmps, kernelComparison{
				Label:      "fused " + row.name + " " + path.String(),
				Naive:      row.name + "_layered" + tag,
				Optimized:  row.name + tag,
				Speedup:    layered.NsPerOp / fused.NsPerOp,
				MinSpeedup: floor,
			})
		}
	}
	// The XNOR convolution against the float tile on the two cloud
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
		if err := tensor.SetKernelPath(path); err != nil {
			return err
		}
		tag := "[" + path.String() + "]"
		for _, row := range xnorRows {
			sign := addBest(row.name+"_sign"+tag, forward(row.inputs, row.blk.ForwardPooled))
			xnor := addBest(row.name+"_xnor"+tag, packedForward(row.blk, row.planes))
			fusedCmps = append(fusedCmps, kernelComparison{
				Label:      "xnor " + row.name + " " + path.String(),
				Naive:      row.name + "_sign" + tag,
				Optimized:  row.name + "_xnor" + tag,
				Speedup:    sign.NsPerOp / xnor.NsPerOp,
				MinSpeedup: floor,
			})
		}
	}
	// The whole cloud section on a session's wire bytes: the devices'
	// packed batch-32 feature maps, all six present, to logits — once
	// unpacked into per-device float maps (zero-filled, as a session
	// holding float tensors drew them) for CloudForwardPooled, whose b1
	// runs the float tile, once through CloudForwardBits.
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
	for _, path := range tensor.KernelPaths() {
		floor, ok := xnorFloors[path]
		if !ok {
			continue
		}
		if err := tensor.SetKernelPath(path); err != nil {
			return err
		}
		tag := "[" + path.String() + "]"
		const name = "convp_cloud_chain_b32"
		float := addBest(name+"_unpack"+tag, chain(unpacked))
		bits := addBest(name+"_bits"+tag, chain(bitsChain))
		fusedCmps = append(fusedCmps, kernelComparison{
			Label:      "bits " + name + " " + path.String(),
			Naive:      name + "_unpack" + tag,
			Optimized:  name + "_bits" + tag,
			Speedup:    float.NsPerOp / bits.NsPerOp,
			MinSpeedup: floor,
		})
	}
	if err := tensor.SetKernelPath(prevPath); err != nil {
		return err
	}

	report.Comparisons = []kernelComparison{
		{Label: "pooled device forward", Naive: "device_forward", Optimized: "device_forward_pooled", Speedup: devFwd.NsPerOp / devFwdPooled.NsPerOp, MinSpeedup: pooledFloor},
		{Label: "pooled cloud forward", Naive: "cloud_forward", Optimized: "cloud_forward_pooled", Speedup: cloudFwd.NsPerOp / cloudFwdPooled.NsPerOp, MinSpeedup: pooledFloor},
	}
	report.Comparisons = append(report.Comparisons, fusedCmps...)
	// Chain gates over the dispatch-path matrix: each step up the path
	// ladder must not lose more than the 5% noise floor, for each kernel.
	// (On AVX2 hosts the simd steps measure well above 1x; the floor only
	// absorbs scheduler noise, not regressions.)
	pathNames := tensor.KernelPaths()
	for _, kernel := range []string{"gemm", "xnor_dot", "pack_signs"} {
		for i := 1; i < len(pathNames); i++ {
			lo, hi := "["+pathNames[i-1].String()+"]", "["+pathNames[i].String()+"]"
			base, step := pathRows[kernel+lo], pathRows[kernel+hi]
			report.Comparisons = append(report.Comparisons, kernelComparison{
				Label:      kernel + " " + pathNames[i].String() + " vs " + pathNames[i-1].String(),
				Naive:      kernel + "_" + sizeTag(kernel) + lo,
				Optimized:  kernel + "_" + sizeTag(kernel) + hi,
				Speedup:    base.NsPerOp / step.NsPerOp,
				MinSpeedup: pooledFloor,
			})
		}
	}
	fmt.Fprintln(out)
	var slow []string
	for _, cmp := range report.Comparisons {
		fmt.Fprintf(out, "%-28s %5.2fx (floor %.2fx)\n", cmp.Label, cmp.Speedup, cmp.MinSpeedup)
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
