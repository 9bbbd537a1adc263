package nn

import (
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// The tests in this file validate every layer's analytic backward pass
// against central finite differences of the forward pass. The scalar
// objective is J = Σ y⊙R for a fixed random R, so dJ/dy = R.

const (
	gradEps = 1e-2
	gradTol = 6e-2
)

// objective evaluates J = Σ forward(x)·R in float64.
func objective(l Layer, x *tensor.Tensor, r []float64) float64 {
	y := l.Forward(x, true)
	var j float64
	for i, v := range y.Data() {
		j += float64(v) * r[i]
	}
	return j
}

// checkGrads runs the layer forward+backward once and compares the analytic
// input and parameter gradients to finite differences.
func checkGrads(t *testing.T, l Layer, x *tensor.Tensor, rng *rand.Rand) {
	t.Helper()
	y := l.Forward(x, true)
	r := make([]float64, y.Size())
	rT := tensor.New(y.Shape()...)
	for i := range r {
		r[i] = rng.Float64()*2 - 1
		rT.Data()[i] = float32(r[i])
	}
	ZeroGrads(l.Params())
	dx := l.Backward(rT)

	// Input gradient.
	xd := x.Data()
	for _, i := range sampleIndices(len(xd), 40, rng) {
		orig := xd[i]
		xd[i] = orig + gradEps
		jp := objective(l, x, r)
		xd[i] = orig - gradEps
		jm := objective(l, x, r)
		xd[i] = orig
		num := (jp - jm) / (2 * gradEps)
		got := float64(dx.Data()[i])
		if !closeGrad(got, num) {
			t.Errorf("input grad[%d] = %g, finite diff %g", i, got, num)
		}
	}

	// Parameter gradients.
	for _, p := range l.Params() {
		pd := p.Value.Data()
		for _, i := range sampleIndices(len(pd), 25, rng) {
			orig := pd[i]
			pd[i] = orig + gradEps
			jp := objective(l, x, r)
			pd[i] = orig - gradEps
			jm := objective(l, x, r)
			pd[i] = orig
			num := (jp - jm) / (2 * gradEps)
			got := float64(p.Grad.Data()[i])
			if !closeGrad(got, num) {
				t.Errorf("param %s grad[%d] = %g, finite diff %g", p.Name, i, got, num)
			}
		}
	}
}

func closeGrad(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if w := abs64(want); w > scale {
		scale = w
	}
	return d <= gradTol*scale
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func sampleIndices(n, k int, rng *rand.Rand) []int {
	if n <= k {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	seen := make(map[int]bool, k)
	idx := make([]int, 0, k)
	for len(idx) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	return idx
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, "fc", 7, 5, true)
	x := tensor.New(4, 7)
	x.FillUniform(rng, -1, 1)
	checkGrads(t, l, x, rng)
}

func TestLinearNoBiasGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, "fc", 6, 3, false)
	x := tensor.New(3, 6)
	x.FillUniform(rng, -1, 1)
	checkGrads(t, l, x, rng)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewConv2D(rng, "conv", 2, 3, 3, 1, 1, true)
	x := tensor.New(2, 2, 6, 6)
	x.FillUniform(rng, -1, 1)
	checkGrads(t, l, x, rng)
}

func TestConv2DStride2Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewConv2D(rng, "conv", 2, 2, 3, 2, 1, false)
	x := tensor.New(2, 2, 7, 7)
	x.FillUniform(rng, -1, 1)
	checkGrads(t, l, x, rng)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewMaxPool2D(3, 2, 1)
	x := tensor.New(2, 2, 8, 8)
	// Distinct values so that argmax ties cannot flip under perturbation.
	perm := rng.Perm(x.Size())
	for i, p := range perm {
		x.Data()[i] = float32(p) * 0.01
	}
	checkGrads(t, l, x, rng)
}

func TestBatchNorm2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewBatchNorm("bn", 5)
	x := tensor.New(8, 5)
	x.FillUniform(rng, -2, 2)
	checkGrads(t, l, x, rng)
}

func TestBatchNorm4DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewBatchNorm("bn", 3)
	x := tensor.New(4, 3, 5, 5)
	x.FillUniform(rng, -2, 2)
	checkGrads(t, l, x, rng)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewReLU()
	x := tensor.New(4, 10)
	x.FillUniform(rng, -1, 1)
	// Keep inputs away from the kink at 0 where finite differences break.
	xd := x.Data()
	for i, v := range xd {
		if v >= 0 && v < 0.1 {
			xd[i] = v + 0.1
		} else if v < 0 && v > -0.1 {
			xd[i] = v - 0.1
		}
	}
	checkGrads(t, l, x, rng)
}

// chain runs layers in order forward and in reverse backward, so a
// gradient check can cover how the layers compose.
type chain []Layer

func (c chain) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range c {
		x = l.Forward(x, train)
	}
	return x
}

func (c chain) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	return c.Forward(x, false)
}

func (c chain) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(c) - 1; i >= 0; i-- {
		grad = c[i].Backward(grad)
	}
	return grad
}

func (c chain) Params() []*Param {
	var ps []*Param
	for _, l := range c {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (c chain) ReleaseTraining() {
	for _, l := range c {
		l.ReleaseTraining()
	}
}

// flatten views [N, ...] as [N, rest] and restores the input shape on the
// way back, as the exit heads do before their linear layer.
type flatten struct{ shape []int }

func (f *flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.shape = x.Shape()
	return x.Reshape(x.Dim(0), x.SampleSize())
}

func (f *flatten) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	return x.Reshape(x.Dim(0), x.SampleSize())
}

func (f *flatten) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad.Reshape(f.shape...) }
func (f *flatten) Params() []*Param                            { return nil }
func (f *flatten) ReleaseTraining()                            {}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := chain{
		NewConv2D(rng, "c1", 1, 2, 3, 1, 1, false),
		NewBatchNorm("bn1", 2),
		NewMaxPool2D(3, 2, 1),
		&flatten{},
		NewLinear(rng, "fc1", 2*3*3, 4, true),
	}
	x := tensor.New(2, 1, 6, 6)
	x.FillUniform(rng, -1, 1)
	checkGrads(t, seq, x, rng)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := tensor.New(5, 3)
	logits.FillUniform(rng, -2, 2)
	labels := []int{0, 2, 1, 1, 0}

	_, grad := SoftmaxCrossEntropy(logits, labels, 1)
	for _, i := range sampleIndices(logits.Size(), 15, rng) {
		ld := logits.Data()
		orig := ld[i]
		ld[i] = orig + gradEps
		jp, _ := SoftmaxCrossEntropy(logits, labels, 1)
		ld[i] = orig - gradEps
		jm, _ := SoftmaxCrossEntropy(logits, labels, 1)
		ld[i] = orig
		num := (jp - jm) / (2 * gradEps)
		if !closeGrad(float64(grad.Data()[i]), num) {
			t.Errorf("loss grad[%d] = %g, finite diff %g", i, grad.Data()[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyWeightScalesGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := tensor.New(3, 4)
	logits.FillUniform(rng, -1, 1)
	labels := []int{1, 3, 0}
	l1, g1 := SoftmaxCrossEntropy(logits, labels, 1)
	l2, g2 := SoftmaxCrossEntropy(logits, labels, 0.5)
	if !closeGrad(l2, l1*0.5) {
		t.Errorf("weighted loss = %g, want %g", l2, l1*0.5)
	}
	for i := range g1.Data() {
		if !closeGrad(float64(g2.Data()[i]), float64(g1.Data()[i])*0.5) {
			t.Fatalf("weighted grad[%d] = %g, want %g", i, g2.Data()[i], g1.Data()[i]*0.5)
		}
	}
}
