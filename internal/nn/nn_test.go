package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(raw [6]int8) bool {
		logits := tensor.New(2, 3)
		for i, v := range raw {
			logits.Data()[i] = float32(v) / 16
		}
		_ = rng
		p := Softmax(logits)
		for r := 0; r < 2; r++ {
			var s float64
			for _, v := range p.Row(r) {
				if v < 0 || v > 1 {
					return false
				}
				s += float64(v)
			}
			if math.Abs(s-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStableForLargeLogits(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, 999, -1000}, 1, 3)
	p := Softmax(logits)
	for _, v := range p.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax produced %g for large logits", v)
		}
	}
	if p.At(0, 0) <= p.At(0, 1) {
		t.Error("softmax ordering not preserved")
	}
}

func TestNormalizedEntropyBounds(t *testing.T) {
	tests := []struct {
		name  string
		probs []float32
		want  float64
		tol   float64
	}{
		{"one-hot is 0", []float32{1, 0, 0}, 0, 1e-9},
		{"uniform is 1", []float32{1. / 3, 1. / 3, 1. / 3}, 1, 1e-6},
		{"uniform 10-way is 1", []float32{.1, .1, .1, .1, .1, .1, .1, .1, .1, .1}, 1, 1e-5},
		{"degenerate single class", []float32{1}, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NormalizedEntropy(tt.probs)
			if math.Abs(got-tt.want) > tt.tol {
				t.Errorf("NormalizedEntropy(%v) = %g, want %g", tt.probs, got, tt.want)
			}
		})
	}
}

func TestNormalizedEntropyInUnitIntervalProperty(t *testing.T) {
	f := func(a, b, c uint16) bool {
		s := float64(a) + float64(b) + float64(c) + 3
		probs := []float32{
			float32((float64(a) + 1) / s),
			float32((float64(b) + 1) / s),
			float32((float64(c) + 1) / s),
		}
		h := NormalizedEntropy(probs)
		return h >= 0 && h <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bn := NewBatchNorm("bn", 4)
	x := tensor.New(64, 4)
	x.FillNormal(rng, 5, 3)
	y := bn.Forward(x, true)
	for c := 0; c < 4; c++ {
		var sum, ssq float64
		for n := 0; n < 64; n++ {
			v := float64(y.At(n, c))
			sum += v
			ssq += v * v
		}
		mean := sum / 64
		variance := ssq/64 - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Errorf("channel %d mean = %g, want ≈0", c, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("channel %d variance = %g, want ≈1", c, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn := NewBatchNorm("bn", 2)
	// Train on many batches so the running stats converge to the data
	// distribution N(3, 4).
	for i := 0; i < 200; i++ {
		x := tensor.New(32, 2)
		x.FillNormal(rng, 3, 2)
		bn.Forward(x, true)
	}
	x := tensor.New(1, 2)
	x.Fill(3) // at the running mean, output should be ≈ β = 0
	y := bn.Forward(x, false)
	for _, v := range y.Data() {
		if math.Abs(float64(v)) > 0.1 {
			t.Errorf("eval output at running mean = %g, want ≈0", v)
		}
	}
}

func TestMaxPoolHalvesSpatialDims(t *testing.T) {
	p := NewMaxPool2D(3, 2, 1)
	for _, in := range []int{32, 16, 8, 4} {
		if got := p.OutSize(in); got != in/2 {
			t.Errorf("OutSize(%d) = %d, want %d", in, got, in/2)
		}
	}
}

func TestMaxPoolSelectsMaximum(t *testing.T) {
	x := tensor.New(1, 1, 4, 4)
	for i := 0; i < 16; i++ {
		x.Data()[i] = float32(i)
	}
	p := NewMaxPool2D(2, 2, 0)
	y := p.Forward(x, false)
	want := []float32{5, 7, 13, 15}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Errorf("pool[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestMaxPoolPaddingNeverWins(t *testing.T) {
	x := tensor.New(1, 1, 2, 2)
	x.Fill(-5) // all negative: zero-padding must not beat real values
	p := NewMaxPool2D(3, 2, 1)
	y := p.Forward(x, false)
	for i, v := range y.Data() {
		if v != -5 {
			t.Errorf("pool[%d] = %g, want -5 (padding must be -inf, not 0)", i, v)
		}
	}
}

// TestMaxPoolArgmaxWithoutFiniteValues pins MaxPool2D on a window whose
// in-bounds values are all NaN or all −Inf, on plane 0 and on a later
// plane: the output stays −Inf, the argmax is the window's first
// in-bounds element, and Backward sends that output's gradient there —
// not to index −1 (a panic on plane 0) nor to the previous plane's last
// element.
func TestMaxPoolArgmaxWithoutFiniteValues(t *testing.T) {
	const n, c, h, w = 2, 2, 4, 4
	for _, fill := range []float32{float32(math.NaN()), float32(math.Inf(-1))} {
		for _, plane := range []int{0, 3} {
			x := tensor.New(n, c, h, w)
			xd := x.Data()
			for i := range xd {
				xd[i] = float32(i%7) - 3
			}
			// Window (0, 0) of the 3×3 stride-2 pad-1 pool reads rows and
			// columns 0 and 1.
			for _, at := range []int{0, 1, w, w + 1} {
				xd[plane*h*w+at] = fill
			}
			p := NewMaxPool2D(3, 2, 1)
			y := p.Forward(x, true)
			oh, ow := y.Dim(2), y.Dim(3)
			if got := y.Data()[plane*oh*ow]; !math.IsInf(float64(got), -1) {
				t.Fatalf("fill=%g plane=%d: output %g, want -Inf", fill, plane, got)
			}
			if got, want := p.argmax[plane*oh*ow], int32(plane*h*w); got != want {
				t.Fatalf("fill=%g plane=%d: argmax %d, want the window's first element %d", fill, plane, got, want)
			}
			grad := tensor.New(y.Shape()...)
			for i := range grad.Data() {
				grad.Data()[i] = float32(1 + i)
			}
			dx := p.Backward(grad).Data()
			for pl := 0; pl < n*c; pl++ {
				var got, want float32
				for _, v := range dx[pl*h*w : (pl+1)*h*w] {
					got += v
				}
				for _, v := range grad.Data()[pl*oh*ow : (pl+1)*oh*ow] {
					want += v
				}
				if got != want {
					t.Fatalf("fill=%g plane=%d: plane %d receives gradient %g, its outputs carry %g", fill, plane, pl, got, want)
				}
			}
			if got, want := dx[plane*h*w], grad.Data()[plane*oh*ow]; got != want {
				t.Fatalf("fill=%g plane=%d: the window's first element receives %g, want %g", fill, plane, got, want)
			}
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(rng, "c", 1, 1, 3, 1, 1, false)
	c.Weight.Value.Zero()
	c.Weight.Value.Set(1, 0, 0, 1, 1) // center tap = identity
	x := tensor.New(1, 1, 5, 5)
	x.FillUniform(rng, -1, 1)
	y := c.Forward(x, false)
	for i, v := range y.Data() {
		if v != x.Data()[i] {
			t.Fatalf("identity conv[%d] = %g, want %g", i, v, x.Data()[i])
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D(rng, "c", 1, 1, 3, 1, 1, false)
	c.Weight.Value.Fill(1) // box filter: output = sum of 3×3 neighbourhood
	x := tensor.New(1, 1, 3, 3)
	x.Fill(1)
	y := c.Forward(x, false)
	// Corners see 4 ones, edges 6, center 9.
	want := []float32{4, 6, 4, 6, 9, 6, 4, 6, 4}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Errorf("box conv[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestConv2DOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tests := []struct {
		name                string
		inC, outC           int
		kernel, stride, pad int
		h, w                int
		wantH, wantW        int
	}{
		{"paper 3x3 s1 p1", 3, 4, 3, 1, 1, 32, 32, 32, 32},
		{"stride 2", 3, 8, 3, 2, 1, 32, 32, 16, 16},
		{"no pad", 1, 1, 3, 1, 0, 8, 8, 6, 6},
		{"5x5 kernel", 2, 2, 5, 1, 2, 10, 10, 10, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewConv2D(rng, "c", tt.inC, tt.outC, tt.kernel, tt.stride, tt.pad, false)
			x := tensor.New(2, tt.inC, tt.h, tt.w)
			y := c.Forward(x, false)
			wantShape := []int{2, tt.outC, tt.wantH, tt.wantW}
			for i, d := range wantShape {
				if y.Dim(i) != d {
					t.Fatalf("output shape %v, want %v", y.Shape(), wantShape)
				}
			}
		})
	}
}

func TestAdamConvergesOnLinearRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Learn y = 2x₁ - 3x₂ + 1 with a linear layer.
	l := NewLinear(rng, "fc", 2, 1, true)
	opt := NewAdam(0.05)
	for step := 0; step < 400; step++ {
		x := tensor.New(16, 2)
		x.FillUniform(rng, -1, 1)
		target := make([]float32, 16)
		for i := 0; i < 16; i++ {
			target[i] = 2*x.At(i, 0) - 3*x.At(i, 1) + 1
		}
		y := l.Forward(x, true)
		grad := tensor.New(16, 1)
		for i := 0; i < 16; i++ {
			grad.Data()[i] = (y.Data()[i] - target[i]) / 16
		}
		ZeroGrads(l.Params())
		l.Backward(grad)
		opt.Step(l.Params())
	}
	if w := l.Weight.Value; math.Abs(float64(w.At(0, 0))-2) > 0.05 || math.Abs(float64(w.At(1, 0))+3) > 0.05 {
		t.Errorf("learned weights %v, want ≈[2, -3]", w.Data())
	}
	if b := l.Bias.Value.Data()[0]; math.Abs(float64(b)-1) > 0.05 {
		t.Errorf("learned bias %g, want ≈1", b)
	}
}

func TestPostStepHookRunsAfterUpdate(t *testing.T) {
	p := NewParam("w", 2)
	p.Value.Fill(5)
	hookRan := false
	p.PostStep = func(p *Param) {
		hookRan = true
		p.Value.Clamp(-1, 1)
	}
	p.Grad.Fill(1)
	NewAdam(0.1).Step([]*Param{p})
	if !hookRan {
		t.Fatal("PostStep hook did not run")
	}
	for _, v := range p.Value.Data() {
		if v != 1 {
			t.Errorf("clamped weight = %g, want 1", v)
		}
	}
}

// TestLayerForwardPooledMatchesForward checks the Layer contract that
// ForwardPooled is the inference forward: for every layer it equals
// Forward(x, false) exactly, also when the pool hands back dirty buffers.
func TestLayerForwardPooledMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trainedBN := func(c int, shape ...int) *BatchNorm {
		bn := NewBatchNorm("bn", c)
		// One training forward moves the running statistics off 0 and 1.
		x := tensor.New(shape...)
		x.FillUniform(rng, -3, 3)
		bn.Forward(x, true)
		bn.Gamma.Value.FillUniform(rng, 0.5, 1.5)
		bn.Beta.Value.FillUniform(rng, -0.5, 0.5)
		return bn
	}
	cases := []struct {
		name  string
		layer Layer
		shape []int
	}{
		{"ReLU", NewReLU(), []int{3, 7}},
		{"Linear", NewLinear(rng, "fc", 6, 4, true), []int{3, 6}},
		{"LinearNoBias", NewLinear(rng, "fc", 6, 4, false), []int{3, 6}},
		{"BatchNorm2D", trainedBN(5, 8, 5), []int{3, 5}},
		{"BatchNorm4D", trainedBN(2, 4, 2, 3, 3), []int{3, 2, 3, 3}},
		{"MaxPool2D", NewMaxPool2D(3, 2, 1), []int{2, 3, 7, 7}},
		{"Conv2D", NewConv2D(rng, "conv", 2, 3, 3, 1, 1, true), []int{2, 2, 5, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := tensor.NewPool()
			for trial := 0; trial < 3; trial++ {
				x := tensor.New(tc.shape...)
				x.FillUniform(rng, -2, 2)
				want := tc.layer.Forward(x, false)
				got := tc.layer.ForwardPooled(x, pool)
				if !got.SameShape(want) {
					t.Fatalf("trial %d: shape %v, want %v", trial, got.Shape(), want.Shape())
				}
				for i, wv := range want.Data() {
					if got.Data()[i] != wv {
						t.Fatalf("trial %d: element %d = %g, want %g", trial, i, got.Data()[i], wv)
					}
				}
				// Poison the buffer before it goes back, so the next trial
				// must overwrite every element it returns.
				got.Fill(float32(math.NaN()))
				pool.Put(got)
			}
		})
	}
}

func TestTrainTinyClassifierEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Two well separated Gaussian blobs must be perfectly classifiable.
	fc1, relu, fc2 := NewLinear(rng, "fc1", 2, 8, true), NewReLU(), NewLinear(rng, "fc2", 8, 2, true)
	params := append(fc1.Params(), fc2.Params()...)
	forward := func(x *tensor.Tensor, train bool) *tensor.Tensor {
		return fc2.Forward(relu.Forward(fc1.Forward(x, train), train), train)
	}
	opt := NewAdam(0.01)
	sample := func() (*tensor.Tensor, []int) {
		x := tensor.New(32, 2)
		labels := make([]int, 32)
		for i := 0; i < 32; i++ {
			c := rng.Intn(2)
			labels[i] = c
			cx := float32(3*c*2 - 3) // -3 or +3
			x.Set(cx+float32(rng.NormFloat64()), i, 0)
			x.Set(cx+float32(rng.NormFloat64()), i, 1)
		}
		return x, labels
	}
	for step := 0; step < 200; step++ {
		x, labels := sample()
		_, grad := SoftmaxCrossEntropy(forward(x, true), labels, 1)
		ZeroGrads(params)
		fc1.Backward(relu.Backward(fc2.Backward(grad)))
		opt.Step(params)
	}
	x, labels := sample()
	logits := forward(x, false)
	correct := 0
	for i, l := range labels {
		if logits.ArgMaxRow(i) == l {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(labels)); acc < 0.97 {
		t.Errorf("tiny classifier accuracy = %g, want ≥0.97", acc)
	}
}

func TestCountParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLinear(rng, "fc", 10, 5, true)
	if got := CountParams(l.Params()); got != 55 {
		t.Errorf("CountParams = %d, want 55", got)
	}
}
