package nn

import (
	"fmt"
	"math"
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
// binarized ±1 weights, the weights BinaryConv2D convolves with; they
// run the same GEMM as any other weights.
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

// TestMaxPoolParallelMatchesSerial checks that splitting a big pool's
// planes over 2 and 3 workers changes neither its training nor its
// inference output, nor where Backward routes the gradient.
func TestMaxPoolParallelMatchesSerial(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	rng := rand.New(rand.NewSource(8))
	p := NewMaxPool2D(3, 2, 1)
	x := tensor.New(16, 8, 32, 32)
	x.FillUniform(rng, -1, 1)
	g := tensor.New(16, 8, 16, 16)
	g.FillUniform(rng, -1, 1)
	run := func(workers int) (train, dx, infer *tensor.Tensor) {
		tensor.SetMaxWorkers(workers)
		train = p.Forward(x, true)
		return train, p.Backward(g), p.Forward(x, false)
	}
	wantTrain, wantDX, wantInfer := run(1)
	for _, workers := range []int{2, 3} {
		train, dx, infer := run(workers)
		sameBits(t, fmt.Sprintf("workers=%d training forward", workers), train, wantTrain)
		sameBits(t, fmt.Sprintf("workers=%d backward", workers), dx, wantDX)
		sameBits(t, fmt.Sprintf("workers=%d inference forward", workers), infer, wantInfer)
	}
}

// TestConv2DBackwardMatchesTapLoop checks the GEMM backward against the
// per-tap loop it replaced (backwardTaps): weight, bias and input
// gradients bit for bit, on every kernel path and for 1, 2 and 3
// workers, with gradients already accumulated in Weight.Grad and
// Bias.Grad. BackwardParams must give Backward's parameter gradients.
// The shapes are every shape of the TestConv2D*Gradients checks, stride
// 2 and 3, the training blocks' shapes (large enough to split over
// samples) and random ones.
func TestConv2DBackwardMatchesTapLoop(t *testing.T) {
	type shape struct{ inC, outC, kernel, stride, pad, n, h, w int }
	shapes := []shape{
		{2, 3, 3, 1, 1, 2, 6, 6},     // TestConv2DGradients
		{2, 2, 3, 2, 1, 2, 7, 7},     // TestConv2DStride2Gradients
		{2, 3, 3, 1, 1, 2, 8, 8},     // TestConvPoolBlockGradients
		{3, 4, 3, 1, 1, 5, 32, 32},   // device block
		{24, 16, 3, 1, 1, 5, 16, 16}, // cloud block 1
		{16, 16, 3, 1, 1, 7, 8, 8},   // cloud block 2
		{5, 6, 3, 2, 1, 4, 15, 14},
		{4, 5, 5, 3, 2, 3, 17, 19},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		k := 1 + rng.Intn(5)
		shapes = append(shapes, shape{1 + rng.Intn(9), 1 + rng.Intn(9), k, 1 + rng.Intn(3), rng.Intn(3),
			1 + rng.Intn(5), k + rng.Intn(12), k + rng.Intn(12)})
	}
	for _, sh := range shapes {
		conv := NewConv2D(rng, "t", sh.inC, sh.outC, sh.kernel, sh.stride, sh.pad, rng.Intn(2) == 0)
		x := tensor.New(sh.n, sh.inC, sh.h, sh.w)
		x.FillUniform(rng, -1, 1)
		g := tensor.New(sh.n, sh.outC, conv.OutSize(sh.h), conv.OutSize(sh.w))
		g.FillUniform(rng, -1, 1)
		conv.Weight.Grad.FillUniform(rng, -1, 1)
		if conv.Bias != nil {
			conv.Bias.Grad.FillUniform(rng, -1, 1)
		}
		checkBackwardParity(t, conv, x, g, []int{1, 2, 3})
	}
}

// checkBackwardParity runs conv's Backward and BackwardParams on x and
// g once per kernel path and worker count and compares the gradients
// bit for bit with backwardTaps from the same starting Weight.Grad and
// Bias.Grad.
func checkBackwardParity(t *testing.T, conv *Conv2D, x, g *tensor.Tensor, workers []int) {
	t.Helper()
	conv.Forward(x, true)
	dW0 := conv.Weight.Grad.Clone()
	var dB0 *tensor.Tensor
	if conv.Bias != nil {
		dB0 = conv.Bias.Grad.Clone()
	}
	restore := func() {
		conv.Weight.Grad.CopyFrom(dW0)
		if dB0 != nil {
			conv.Bias.Grad.CopyFrom(dB0)
		}
	}
	wantDX := conv.backwardTaps(g)
	wantDW := conv.Weight.Grad.Clone()
	var wantDB *tensor.Tensor
	if dB0 != nil {
		wantDB = conv.Bias.Grad.Clone()
	}
	prevPath := tensor.CurrentKernelPath()
	defer tensor.SetKernelPath(prevPath)
	defer tensor.SetMaxWorkers(0)
	for _, p := range tensor.KernelPaths() {
		if err := tensor.SetKernelPath(p); err != nil {
			t.Fatal(err)
		}
		for _, nw := range workers {
			tensor.SetMaxWorkers(nw)
			where := func(what string) string {
				return fmt.Sprintf("%s path=%v workers=%d in=%v k=%d s=%d p=%d outC=%d bias=%v",
					what, p, nw, x.Shape(), conv.Kernel, conv.Stride, conv.Pad, conv.OutC, conv.Bias != nil)
			}
			restore()
			sameBits(t, where("dX"), conv.Backward(g), wantDX)
			sameBits(t, where("dW"), conv.Weight.Grad, wantDW)
			if wantDB != nil {
				sameBits(t, where("dB"), conv.Bias.Grad, wantDB)
			}
			restore()
			conv.BackwardParams(g)
			sameBits(t, where("BackwardParams dW"), conv.Weight.Grad, wantDW)
			if wantDB != nil {
				sameBits(t, where("BackwardParams dB"), conv.Bias.Grad, wantDB)
			}
		}
	}
}

// sameBits fails t unless got and want hold the same float32 bits.
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, wv := range want.Data() {
		if gv := got.Data()[i]; math.Float32bits(gv) != math.Float32bits(wv) {
			t.Fatalf("%s: element %d = %g (%#08x), tap loop %g (%#08x)", what, i, gv, math.Float32bits(gv), wv, math.Float32bits(wv))
		}
	}
}

// TestConv2DBackwardAllocationsFlatInBatch checks that the backward's
// scratch comes from the layer's pool: once warm, a Backward of 8
// samples makes as many allocations as one of 2.
func TestConv2DBackwardAllocationsFlatInBatch(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	tensor.SetMaxWorkers(1)
	rng := rand.New(rand.NewSource(6))
	conv := NewConv2D(rng, "t", 4, 6, 3, 1, 1, true)
	allocs := func(n int) float64 {
		x := tensor.New(n, 4, 12, 12)
		x.FillUniform(rng, -1, 1)
		g := tensor.New(n, 6, 12, 12)
		g.FillUniform(rng, -1, 1)
		conv.Forward(x, true)
		conv.Backward(g) // warm the pool for this batch size
		return testing.AllocsPerRun(20, func() { conv.Backward(g) })
	}
	if a2, a8 := allocs(2), allocs(8); a8 != a2 {
		t.Fatalf("Backward allocations: %v at batch 8, %v at batch 2", a8, a2)
	}
}

// TestConv2DReleaseTraining checks that ReleaseTraining leaves the layer
// as a fresh one: Backward panics until the next training Forward, and
// gradients after that are unchanged.
func TestConv2DReleaseTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv := NewConv2D(rng, "t", 2, 3, 3, 1, 1, true)
	x := tensor.New(2, 2, 6, 6)
	x.FillUniform(rng, -1, 1)
	g := tensor.New(2, 3, 6, 6)
	g.FillUniform(rng, -1, 1)
	conv.Forward(x, true)
	want := conv.Backward(g)
	conv.ReleaseTraining()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Backward after ReleaseTraining did not panic")
			}
		}()
		conv.Backward(g)
	}()
	conv.Forward(x, true)
	sameBits(t, "dX after release", conv.Backward(g), want)
}

// backwardTaps is the per-tap scalar backward the GEMM path replaced:
// the oracle of the backward parity checks. It accumulates into
// Weight.Grad and Bias.Grad and returns the input gradient.
func (c *Conv2D) backwardTaps(grad *tensor.Tensor) *tensor.Tensor {
	n := c.x.Dim(0)
	h, w, oh, ow := c.cachedInH, c.cachedInW, c.cachedOutH, c.cachedOutW
	k, st, pad := c.Kernel, c.Stride, c.Pad
	dx := tensor.New(n, c.InC, h, w)
	xd, gd, dxd := c.x.Data(), grad.Data(), dx.Data()
	wd, dwd := c.Weight.Value.Data(), c.Weight.Grad.Data()
	inPlane, outPlane := h*w, oh*ow
	for ni := 0; ni < n; ni++ {
		xBase := ni * c.InC * inPlane
		gBase := ni * c.OutC * outPlane
		for f := 0; f < c.OutC; f++ {
			gout := gd[gBase+f*outPlane : gBase+(f+1)*outPlane]
			if c.Bias != nil {
				var s float32
				for _, v := range gout {
					s += v
				}
				c.Bias.Grad.Data()[f] += s
			}
			for ci := 0; ci < c.InC; ci++ {
				in := xd[xBase+ci*inPlane : xBase+(ci+1)*inPlane]
				din := dxd[xBase+ci*inPlane : xBase+(ci+1)*inPlane]
				wBase := (f*c.InC + ci) * k * k
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						widx := wBase + ky*k + kx
						dwd[widx] += convTapGradW(gout, in, oh, ow, h, w, ky-pad, kx-pad, st)
						convTapGradX(din, gout, wd[widx], oh, ow, h, w, ky-pad, kx-pad, st)
					}
				}
			}
		}
	}
	return dx
}

// convTapGradW returns Σ gout[oy,ox]·in[oy·st+dy, ox·st+dx] over the
// output locations whose tap lies inside the input.
func convTapGradW(gout, in []float32, oh, ow, ih, iw, dy, dx, st int) float32 {
	var s float32
	for oy := 0; oy < oh; oy++ {
		iy := oy*st + dy
		if iy < 0 || iy >= ih {
			continue
		}
		grow := gout[oy*ow : (oy+1)*ow]
		irow := in[iy*iw : (iy+1)*iw]
		ox0, ox1 := colRange(ow, iw, dx, st)
		for ox := ox0; ox < ox1; ox++ {
			s += grow[ox] * irow[ox*st+dx]
		}
	}
	return s
}

// convTapGradX scatters wv·gout into the input gradient din, skipping
// zero weights.
func convTapGradX(din, gout []float32, wv float32, oh, ow, ih, iw, dy, dx, st int) {
	if wv == 0 {
		return
	}
	for oy := 0; oy < oh; oy++ {
		iy := oy*st + dy
		if iy < 0 || iy >= ih {
			continue
		}
		grow := gout[oy*ow : (oy+1)*ow]
		drow := din[iy*iw : (iy+1)*iw]
		ox0, ox1 := colRange(ow, iw, dx, st)
		for ox := ox0; ox < ox1; ox++ {
			drow[ox*st+dx] += wv * grow[ox]
		}
	}
}

// colRange returns the half-open range of output columns whose sampled
// input column ox*st+dx lies within [0, iw); a tap with dx ≥ iw samples
// none.
func colRange(ow, iw, dx, st int) (int, int) {
	ox0 := 0
	if dx < 0 {
		ox0 = (-dx + st - 1) / st
	}
	ox1 := ow
	if dx >= iw {
		ox1 = 0
	} else if maxOx := (iw - 1 - dx) / st; maxOx+1 < ox1 {
		ox1 = maxOx + 1
	}
	if ox1 < ox0 {
		ox1 = ox0
	}
	return ox0, ox1
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
		if st == 1 && ox0 < ox1 {
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
