package bnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

func TestBinarizeSigns(t *testing.T) {
	src := tensor.FromSlice([]float32{-0.5, 0, 0.5, -1e-9, 2}, 5, 1)
	dst := tensor.New(5, 1)
	Binarize(dst, src)
	want := []float32{-1, 1, 1, -1, 1}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Errorf("Binarize[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestBinaryActivationForwardIsSign(t *testing.T) {
	a := NewBinaryActivation()
	x := tensor.FromSlice([]float32{-2, -0.5, 0.5, 2}, 4, 1)
	y := a.Forward(x, false)
	want := []float32{-1, -1, 1, 1}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Errorf("sign[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestBinaryActivationSTEWindow(t *testing.T) {
	a := NewBinaryActivation()
	x := tensor.FromSlice([]float32{-2, -0.5, 0.5, 2}, 4, 1)
	a.Forward(x, true)
	g := tensor.FromSlice([]float32{1, 1, 1, 1}, 4, 1)
	dx := a.Backward(g)
	want := []float32{0, 1, 1, 0} // gradient only inside |x| ≤ 1
	for i, v := range dx.Data() {
		if v != want[i] {
			t.Errorf("STE grad[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestBinaryLinearUsesSignWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewBinaryLinear(rng, "bl", 3, 2)
	l.Latent.Value.CopyFrom(tensor.FromSlice([]float32{0.3, -0.7, -0.1, 0.9, 0.2, -0.4}, 3, 2))
	l.SyncWeights() // manual latent edits must re-sync before inference
	x := tensor.FromSlice([]float32{1, 1, 1}, 1, 3)
	y := l.Forward(x, false)
	// Effective weights are signs: [[+1,-1],[-1,+1],[+1,-1]] → y = [1, -1].
	if y.At(0, 0) != 1 || y.At(0, 1) != -1 {
		t.Errorf("binary linear output %v, want [1 -1]", y.Data())
	}
}

func TestBinaryLinearGradientFlowsToLatent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewBinaryLinear(rng, "bl", 4, 2)
	x := tensor.New(3, 4)
	x.FillUniform(rng, -1, 1)
	l.Forward(x, true)
	g := tensor.New(3, 2)
	g.Fill(1)
	nn.ZeroGrads(l.Params())
	l.Backward(g)
	if l.Latent.Grad.L2Norm() == 0 {
		t.Error("latent gradient is zero; straight-through estimator broken")
	}
}

func TestLatentClipAfterStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewBinaryLinear(rng, "bl", 2, 2)
	l.Latent.Value.Fill(0.99)
	l.Latent.Grad.Fill(-50) // huge gradient pushes latent far above 1
	nn.NewSGD(1, 0).Step(l.Params())
	for i, v := range l.Latent.Value.Data() {
		if v < -1 || v > 1 {
			t.Errorf("latent[%d] = %g, escaped clip window", i, v)
		}
	}
}

func TestBinaryConvOutputIsConvOfSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewBinaryConv2D(rng, "bc", 1, 1, 3, 1, 1)
	c.Latent.Value.Fill(0.25) // binarizes to all +1: box filter
	c.SyncWeights()
	x := tensor.New(1, 1, 3, 3)
	x.Fill(1)
	y := c.Forward(x, false)
	want := []float32{4, 6, 4, 6, 9, 6, 4, 6, 4}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Errorf("binary box conv[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestConvPShapesAndBinaryOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewConvP(rng, "convp", 3, 4)
	x := tensor.New(2, 3, 32, 32)
	x.FillUniform(rng, 0, 1)
	y := b.Forward(x, true)
	wantShape := []int{2, 4, 16, 16}
	for i, d := range wantShape {
		if y.Dim(i) != d {
			t.Fatalf("ConvP output shape %v, want %v (paper: f×16×16)", y.Shape(), wantShape)
		}
	}
	for i, v := range y.Data() {
		if v != 1 && v != -1 {
			t.Fatalf("ConvP output[%d] = %g, want ±1", i, v)
		}
	}
}

func TestFCShapesAndBinaryOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewFC(rng, "fc", 10, 6)
	x := tensor.New(4, 10)
	x.FillUniform(rng, -1, 1)
	y := b.Forward(x, true)
	if y.Dim(0) != 4 || y.Dim(1) != 6 {
		t.Fatalf("FC output shape %v, want [4 6]", y.Shape())
	}
	for i, v := range y.Data() {
		if v != 1 && v != -1 {
			t.Fatalf("FC output[%d] = %g, want ±1", i, v)
		}
	}
}

func TestConvPBackwardProducesLatentGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewConvP(rng, "convp", 3, 4)
	x := tensor.New(2, 3, 8, 8)
	x.FillUniform(rng, -0.5, 0.5)
	y := b.Forward(x, true)
	g := tensor.New(y.Shape()...)
	g.FillUniform(rng, -1, 1)
	nn.ZeroGrads(b.Params())
	dx := b.Backward(g)
	if !dx.SameShape(x) {
		t.Fatalf("input grad shape %v, want %v", dx.Shape(), x.Shape())
	}
	if b.Conv.Latent.Grad.L2Norm() == 0 {
		t.Error("ConvP latent gradient is zero")
	}
}

func TestPackUnpackRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		src := tensor.New(n)
		src.FillUniform(rng, -1, 1)
		bin := tensor.New(n)
		Binarize(bin, src)
		packed := PackSigns(src)
		if len(packed) != PackedSize(n) {
			return false
		}
		back := make([]float32, n)
		if err := UnpackSignsInto(back, packed); err != nil {
			return false
		}
		for i := range back {
			if back[i] != bin.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnpackSignsRejectsWrongLength(t *testing.T) {
	dst := make([]float32, 9)
	if err := UnpackSignsInto(dst, []byte{0xFF}); err == nil {
		t.Error("UnpackSignsInto accepted 1 byte for 9 elements")
	}
	if err := UnpackSignsInto(dst, []byte{0xFF, 0x00, 0x00}); err == nil {
		t.Error("UnpackSignsInto accepted 3 bytes for 9 elements")
	}
}

func TestPackedSizeMatchesEquationOne(t *testing.T) {
	// The second term of Eq. (1) charges f·o/8 bytes for the binarized
	// feature upload: f filters × o output elements, one bit each.
	f, o := 4, 16*16
	if got := PackedSize(f * o); got != f*o/8 {
		t.Errorf("PackedSize(%d) = %d, want %d", f*o, got, f*o/8)
	}
}

func TestDeviceSectionUnder2KB(t *testing.T) {
	// §IV-F: "For all settings, the NN layers stored on an end device
	// require under 2 KB of memory." Device section = ConvP(3→f) + FC block
	// + exit linear; check the largest evaluated f.
	rng := rand.New(rand.NewSource(9))
	for _, f := range []int{1, 2, 4, 8} {
		convp := NewConvP(rng, "convp", 3, f)
		fcIn := f * 16 * 16
		fc := NewFC(rng, "fc", fcIn, 3) // n = |C| nodes
		if got := TotalMemoryBytes(convp, fc); got >= 2048 {
			t.Errorf("device memory with f=%d filters = %d B, want < 2048 B", f, got)
		}
	}
}

func TestBinaryTrainingLearnsXOR(t *testing.T) {
	// A binarized MLP with enough hidden width must solve XOR, proving the
	// straight-through estimator trains end to end.
	rng := rand.New(rand.NewSource(10))
	model := nn.NewSequential(
		nn.NewLinear(rng, "in", 2, 16, true), // float first layer, as in BNN practice
		NewFC(rng, "h", 16, 16),
		nn.NewLinear(rng, "out", 16, 2, true),
	)
	opt := nn.NewAdam(0.01)
	xs := [][]float32{{-1, -1}, {-1, 1}, {1, -1}, {1, 1}}
	ys := []int{0, 1, 1, 0}
	x := tensor.New(4, 2)
	for i, row := range xs {
		x.Set(row[0], i, 0)
		x.Set(row[1], i, 1)
	}
	var acc float64
	for epoch := 0; epoch < 500; epoch++ {
		logits := model.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy(logits, ys, 1)
		nn.ZeroGrads(model.Params())
		model.Backward(grad)
		opt.Step(model.Params())
		acc = nn.Accuracy(model.Forward(x, false), ys)
		if acc == 1 {
			break
		}
	}
	if acc < 1 {
		t.Errorf("binary MLP accuracy on XOR = %g, want 1.0", acc)
	}
}

func TestMemoryBitsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewConvP(rng, "convp", 3, 4)
	// 4 filters × 3 channels × 3×3 weights = 108 bits + 2 BN params × 32
	// bits × 4 channels = 256 bits.
	if got, want := b.MemoryBits(), 108+256; got != want {
		t.Errorf("ConvP MemoryBits = %d, want %d", got, want)
	}
	fc := NewFC(rng, "fc", 8, 4)
	if got, want := fc.MemoryBits(), 32+256; got != want {
		t.Errorf("FC MemoryBits = %d, want %d", got, want)
	}
	if got := TotalMemoryBytes(b, fc); got != (108+256+32+256+7)/8 {
		t.Errorf("TotalMemoryBytes = %d", got)
	}
}

func TestBinaryLayersConvergeOnLinearlySeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	model := nn.NewSequential(
		NewFC(rng, "fc1", 2, 8),
		nn.NewLinear(rng, "out", 8, 2, true),
	)
	opt := nn.NewAdam(0.02)
	sample := func() (*tensor.Tensor, []int) {
		x := tensor.New(32, 2)
		labels := make([]int, 32)
		for i := 0; i < 32; i++ {
			c := rng.Intn(2)
			labels[i] = c
			off := float32(c*6 - 3)
			x.Set(off+float32(rng.NormFloat64())*0.5, i, 0)
			x.Set(off+float32(rng.NormFloat64())*0.5, i, 1)
		}
		return x, labels
	}
	for step := 0; step < 300; step++ {
		x, labels := sample()
		logits := model.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels, 1)
		nn.ZeroGrads(model.Params())
		model.Backward(grad)
		opt.Step(model.Params())
	}
	x, labels := sample()
	if acc := nn.Accuracy(model.Forward(x, false), labels); acc < 0.95 {
		t.Errorf("binary classifier accuracy = %g, want ≥0.95", acc)
	}
}

func TestPackedWeightsMatchSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewBinaryLinear(rng, "bl", 5, 3)
	packed := l.PackedWeights()
	back := make([]float32, 15)
	if err := UnpackSignsInto(back, packed); err != nil {
		t.Fatal(err)
	}
	for i, v := range l.Latent.Value.Data() {
		want := float32(1)
		if v < 0 {
			want = -1
		}
		if back[i] != want {
			t.Errorf("packed weight %d = %g, want %g", i, back[i], want)
		}
	}
	if math.Abs(float64(len(packed))-math.Ceil(float64(15)/8)) > 0 {
		t.Errorf("packed length = %d, want 2", len(packed))
	}
}
