package nn

import (
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// TestConvForwardMatchesTapLoop checks the im2col+GEMM forward against
// the retained tap-loop reference on randomized shapes — kernel sizes,
// strides, paddings (including pad 0 and pad > kernel/2), non-square
// inputs, batches, and bias. The GEMM accumulates every output element's
// taps in the tap loop's exact order, so outputs must be equal.
func TestConvForwardMatchesTapLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		kernel := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(3)
		inC := 1 + rng.Intn(4)
		outC := 1 + rng.Intn(9)
		h := kernel + rng.Intn(12)
		w := kernel + rng.Intn(12)
		n := 1 + rng.Intn(3)
		withBias := rng.Intn(2) == 0

		conv := NewConv2D(rng, "t", inC, outC, kernel, stride, pad, withBias)
		if withBias {
			conv.Bias.Value.FillUniform(rng, -1, 1)
		}
		x := tensor.New(n, inC, h, w)
		x.FillUniform(rng, -1, 1)

		want := conv.forwardTaps(x)
		got := conv.Forward(x, false)
		if !got.SameShape(want) {
			t.Fatalf("k=%d s=%d p=%d: shape %v, want %v", kernel, stride, pad, got.Shape(), want.Shape())
		}
		for i, wv := range want.Data() {
			if got.Data()[i] != wv {
				t.Fatalf("k=%d s=%d p=%d inC=%d outC=%d %dx%d n=%d bias=%v: element %d = %g, taps %g",
					kernel, stride, pad, inC, outC, h, w, n, withBias, i, got.Data()[i], wv)
			}
		}
	}
}

// TestConvForwardSignKernelMatchesTapLoop is the same contract for
// binarized ±1 weights, which take the add/sub sign-GEMM path.
func TestConvForwardSignKernelMatchesTapLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		kernel := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		inC := 1 + rng.Intn(4)
		outC := 1 + rng.Intn(9)
		h := kernel + rng.Intn(10)
		w := kernel + rng.Intn(10)
		n := 1 + rng.Intn(3)

		conv := NewConv2D(rng, "t", inC, outC, kernel, stride, pad, false)
		wd := conv.Weight.Value.Data()
		for i := range wd {
			wd[i] = float32(rng.Intn(2)*2 - 1)
		}
		conv.SignWeights = true
		x := tensor.New(n, inC, h, w)
		x.FillUniform(rng, -1, 1)

		want := conv.forwardTaps(x)
		got := conv.Forward(x, false)
		for i, wv := range want.Data() {
			if got.Data()[i] != wv {
				t.Fatalf("k=%d s=%d p=%d inC=%d outC=%d %dx%d n=%d: element %d = %g, taps %g",
					kernel, stride, pad, inC, outC, h, w, n, i, got.Data()[i], wv)
			}
		}
	}
}

// TestConvForwardPooledMatchesForward checks that the pooled inference
// forward (pool-provided output and scratch) produces exactly the plain
// forward's result, including when the pool recycles dirty buffers.
func TestConvForwardPooledMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D(rng, "t", 3, 4, 3, 1, 1, false)
	pool := tensor.NewPool()
	for trial := 0; trial < 5; trial++ {
		x := tensor.New(2, 3, 8, 8)
		x.FillUniform(rng, -1, 1)
		want := conv.Forward(x, false)
		got := conv.ForwardPooled(x, pool)
		for i, wv := range want.Data() {
			if got.Data()[i] != wv {
				t.Fatalf("trial %d: element %d = %g, want %g", trial, i, got.Data()[i], wv)
			}
		}
		pool.Put(got)
	}
}

// TestMaxPoolInferenceMatchesTraining checks that the inference forward
// (no argmax bookkeeping, nothing cached) equals the training forward
// across shapes and strides.
func TestMaxPoolInferenceMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		kernel := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(kernel) // pad < kernel keeps windows non-empty
		h := kernel + rng.Intn(12)
		w := kernel + rng.Intn(12)
		p := NewMaxPool2D(kernel, stride, pad)
		x := tensor.New(2, 3, h, w)
		x.FillUniform(rng, -1, 1)

		want := p.Forward(x, true) // training scan
		got := p.Forward(x, false) // inference, layer state untouched
		for i, wv := range want.Data() {
			if got.Data()[i] != wv {
				t.Fatalf("k=%d s=%d p=%d %dx%d: element %d = %g, training scan %g",
					kernel, stride, pad, h, w, i, got.Data()[i], wv)
			}
		}
	}
}

// forwardTaps is the scalar per-tap reference convolution the GEMM path
// replaced: the ground truth for the im2col+GEMM parity tests.
func (c *Conv2D) forwardTaps(x *tensor.Tensor) *tensor.Tensor {
	n, h, w := c.checkInput(x)
	oh, ow := c.OutSize(h), c.OutSize(w)
	y := tensor.New(n, c.OutC, oh, ow)
	xd, yd, wd := x.Data(), y.Data(), c.Weight.Value.Data()
	k, st, pad := c.Kernel, c.Stride, c.Pad
	inPlane := h * w
	outPlane := oh * ow
	for ni := 0; ni < n; ni++ {
		xBase := ni * c.InC * inPlane
		yBase := ni * c.OutC * outPlane
		for f := 0; f < c.OutC; f++ {
			out := yd[yBase+f*outPlane : yBase+(f+1)*outPlane]
			for ci := 0; ci < c.InC; ci++ {
				in := xd[xBase+ci*inPlane : xBase+(ci+1)*inPlane]
				wBase := (f*c.InC + ci) * k * k
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						wv := wd[wBase+ky*k+kx]
						if wv == 0 {
							continue
						}
						convAccum(out, in, wv, oh, ow, h, w, ky-pad, kx-pad, st)
					}
				}
			}
			if c.Bias != nil {
				bv := c.Bias.Value.Data()[f]
				for i := range out {
					out[i] += bv
				}
			}
		}
	}
	return y
}

// convAccum adds wv * shifted(in) into out for one kernel tap. dy/dx are the
// spatial offsets of the tap relative to the output origin; st is the
// stride. Out-of-bounds input locations contribute zero (zero padding).
func convAccum(out, in []float32, wv float32, oh, ow, ih, iw, dy, dx, st int) {
	for oy := 0; oy < oh; oy++ {
		iy := oy*st + dy
		if iy < 0 || iy >= ih {
			continue
		}
		orow := out[oy*ow : (oy+1)*ow]
		irow := in[iy*iw : (iy+1)*iw]
		// Valid output columns: 0 <= ox*st+dx < iw.
		ox0, ox1 := colRange(ow, iw, dx, st)
		if st == 1 {
			// Contiguous fast path: orow[ox] += wv * irow[ox+dx].
			src := irow[ox0+dx : ox1+dx]
			dst := orow[ox0:ox1]
			for i, sv := range src {
				dst[i] += wv * sv
			}
			continue
		}
		for ox := ox0; ox < ox1; ox++ {
			orow[ox] += wv * irow[ox*st+dx]
		}
	}
}
