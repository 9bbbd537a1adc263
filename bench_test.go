// Micro-benchmarks of the substrate operations. The paper's evaluation
// (§IV) is the experiments package's record (REPRO.json, retaken by
// cmd/ddnn-bench -exp repro), and the serving stack is measured end to
// end by the benchmark/ ledger, not here.
package ddnn_test

import (
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/experiments"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// --- substrate micro-benchmarks ---

// benchFrames is how many distinct inputs the forward benchmarks rotate
// over (see experiments.ForwardInputs for why one constant frame lies).
const benchFrames = 64

func forwardInputs(b *testing.B, m *core.Model) *experiments.ForwardInputs {
	b.Helper()
	in, err := experiments.NewForwardInputs(m, benchFrames, 1)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkDeviceSectionInference measures one end device's per-frame
// cost: ConvP block + exit head on single 3×32×32 dataset frames.
func BenchmarkDeviceSectionInference(b *testing.B) {
	b.ReportAllocs()
	m := core.MustNewModel(core.DefaultConfig())
	in := forwardInputs(b, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DeviceForward(0, in.Views[i%benchFrames])
	}
}

// BenchmarkCloudSectionInference measures the cloud's per-sample cost:
// aggregation of six uploaded feature maps plus the upper NN layers.
func BenchmarkCloudSectionInference(b *testing.B) {
	b.ReportAllocs()
	m := core.MustNewModel(core.DefaultConfig())
	in := forwardInputs(b, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CloudForwardPooled(in.Feats[i%benchFrames], nil, nil)
	}
}

// BenchmarkTrainStep measures one joint forward/backward pass over a
// 32-sample batch (all six devices plus the cloud).
func BenchmarkTrainStep(b *testing.B) {
	b.ReportAllocs()
	dcfg := dataset.DefaultConfig()
	dcfg.Train, dcfg.Test = 64, 8
	train, _ := dataset.MustGenerate(dcfg)
	m := core.MustNewModel(core.DefaultConfig())
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	xs := train.AllDeviceBatches(m.Cfg.Devices, idx)
	labels := train.Labels(idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrads(m.Params())
		m.TrainStep(xs, labels)
	}
}

// BenchmarkConvPForward measures the binary convolution-pool block on
// device-sized dataset frames: the fused serving forward against a warm
// pool, and the layered inference forward it is tested against.
func BenchmarkConvPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blk := bnn.NewConvP(rng, "bench", 3, 4)
	in := forwardInputs(b, core.MustNewModel(core.DefaultConfig()))
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		pool := tensor.NewPool()
		for i := 0; i < b.N; i++ {
			pool.Put(blk.ForwardPooled(in.Views[i%benchFrames], pool))
		}
	})
	b.Run("layered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blk.Forward(in.Views[i%benchFrames], false)
		}
	})
}

// BenchmarkPackSigns measures eBNN bit-packing of one feature map
// (4×16×16 bits → 128 B), the upload payload of Eq. (1).
func BenchmarkPackSigns(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	t := tensor.New(1, 4, 16, 16)
	t.FillUniform(rng, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bnn.PackSigns(t)
	}
}

// BenchmarkUnpackSigns measures the cloud-side unpacking.
func BenchmarkUnpackSigns(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	t := tensor.New(1, 4, 16, 16)
	t.FillUniform(rng, -1, 1)
	bits := bnn.PackSigns(t)
	dst := make([]float32, t.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bnn.UnpackSignsInto(dst, bits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregators measures the three aggregation schemes over six
// device feature maps.
func BenchmarkAggregators(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	inputs := make([]*tensor.Tensor, 6)
	for d := range inputs {
		inputs[d] = tensor.New(1, 4, 16, 16)
		inputs[d].FillUniform(rng, -1, 1)
	}
	b.Run("MP", func(b *testing.B) {
		b.ReportAllocs()
		a := agg.NewMax()
		for i := 0; i < b.N; i++ {
			a.Forward(inputs, nil, false)
		}
	})
	b.Run("AP", func(b *testing.B) {
		b.ReportAllocs()
		a := agg.NewAvg()
		for i := 0; i < b.N; i++ {
			a.Forward(inputs, nil, false)
		}
	})
	b.Run("CC", func(b *testing.B) {
		b.ReportAllocs()
		a := agg.NewConcatFeat(6)
		for i := 0; i < b.N; i++ {
			a.Forward(inputs, nil, false)
		}
	})
}

// BenchmarkWireFeatureUpload measures encode+decode of the Eq. (1) upload
// message (128-B payload).
func BenchmarkWireFeatureUpload(b *testing.B) {
	b.ReportAllocs()
	msg := &wire.FeatureUpload{SampleID: 1, Device: 2, F: 4, H: 16, W: 16, Bits: make([]byte, 128)}
	var buf loopBuffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := wire.Encode(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormalizedEntropy measures the exit-confidence criterion.
func BenchmarkNormalizedEntropy(b *testing.B) {
	b.ReportAllocs()
	probs := []float32{0.7, 0.2, 0.1}
	for i := 0; i < b.N; i++ {
		nn.NormalizedEntropy(probs)
	}
}

// BenchmarkMatMul measures the core GEMM on a cloud-exit-head-sized
// multiply.
func BenchmarkMatMul(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(32, 256)
	w := tensor.New(256, 64)
	x.FillUniform(rng, -1, 1)
	w.FillUniform(rng, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, w)
	}
}

// --- compute-kernel micro-benchmarks (naive vs optimized) ---

// BenchmarkIm2col measures lowering one device frame (3×32×32, 3×3
// kernel, stride 1, pad 1) into its GEMM operand with a reused buffer.
func BenchmarkIm2col(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(1, 3, 32, 32)
	x.FillUniform(rng, 0, 1)
	rows, cols := tensor.Im2colShape(x, 3, 1, 1)
	buf := make([]float32, rows*cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2colInto(buf, x, 0, 3, 1, 1)
	}
}

// BenchmarkPackedLinear measures the deployed XNOR-popcount exit head
// (1024→3) on one packed input.
func BenchmarkPackedLinear(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := bnn.NewBinaryLinear(rng, "bench", 1024, 3).Packed()
	v := make([]float32, 1024)
	for i := range v {
		v[i] = float32(rng.Intn(2)*2 - 1)
	}
	x := bnn.PackVector(v).Bytes()
	dst := make([]float32, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ForwardInto(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceForward compares the unpooled section forward (fresh
// tensors every call) against the pooled serving path (zero-ish
// steady-state allocation).
func BenchmarkDeviceForward(b *testing.B) {
	m := core.MustNewModel(core.DefaultConfig())
	x := tensor.New(1, 3, 32, 32)
	x.FillUniform(rand.New(rand.NewSource(1)), 0, 1)
	b.Run("unpooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.DeviceForward(0, x)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := tensor.NewPool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feat, exitVec := m.DeviceForwardPooled(0, x, pool)
			pool.Put(exitVec)
			pool.Put(feat)
		}
	})
}

// loopBuffer is a minimal in-memory read/write buffer for the wire bench.
type loopBuffer struct {
	data []byte
	off  int
}

func (l *loopBuffer) Write(p []byte) (int, error) {
	l.data = append(l.data, p...)
	return len(p), nil
}

func (l *loopBuffer) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

func (l *loopBuffer) Reset() { l.data, l.off = l.data[:0], 0 }
