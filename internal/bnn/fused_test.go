package bnn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// The tests in this file pin the fused ConvP kernel (fused.go) to the
// layered reference ConvP.Forward(x, false) evaluated on the naive
// dispatch path — im2col + the scalar GEMM, the clipped pool scan,
// BatchNorm's inference loop and Binarize — which shares no code with
// the fused kernel beyond BatchNorm.InferenceAffine.

// convpOracle evaluates the layered reference on the naive path.
func convpOracle(t testing.TB, blk *ConvP, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	prev := tensor.CurrentKernelPath()
	if err := tensor.SetKernelPath(tensor.KernelNaive); err != nil {
		t.Fatal(err)
	}
	defer tensor.SetKernelPath(prev)
	return blk.Forward(x, false)
}

// newDiffConvP builds a block with random binarized weights and random
// batch-norm statistics, including negative and zero scales.
func newDiffConvP(rng *rand.Rand, c, f int) *ConvP {
	blk := NewConvP(rng, "diff", c, f)
	blk.BN.RunningMean.FillUniform(rng, -2, 2)
	blk.BN.RunningVar.FillUniform(rng, 0.25, 4)
	blk.BN.Gamma.Value.FillUniform(rng, -1.5, 1.5)
	blk.BN.Beta.Value.FillUniform(rng, -1, 1)
	if f > 2 {
		blk.BN.Gamma.Value.Data()[f-1] = 0
	}
	return blk
}

// crossingConvP builds a block whose batch norm is y = m − k exactly
// (inv = 1/√4, γ = 2, β = 0, mean k): on ±1 inputs every convolution
// output is an integer, so pooled values land exactly on the zero
// crossing whenever they equal k.
func crossingConvP(rng *rand.Rand, c, f int) *ConvP {
	blk := NewConvP(rng, "cross", c, f)
	for ci := 0; ci < f; ci++ {
		blk.BN.RunningVar.Data()[ci] = 4 - blk.BN.Eps
		blk.BN.Gamma.Value.Data()[ci] = 2
		blk.BN.RunningMean.Data()[ci] = float32(rng.Intn(2*c+3) + c)
	}
	return blk
}

func fillSigns(dst []float32, rng *rand.Rand) {
	for i := range dst {
		dst[i] = float32(rng.Intn(2)*2 - 1)
	}
}

// checkAllPaths compares ForwardPooled on every dispatch path, through a
// shared pool that recycles dirty buffers, against want.
func checkAllPaths(t *testing.T, what string, blk *ConvP, x, want *tensor.Tensor, pool *tensor.Pool) {
	t.Helper()
	forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
		got := blk.ForwardPooled(x, pool)
		if !got.SameShape(want) {
			t.Fatalf("%s path=%v: shape %v, reference %v", what, p, got.Shape(), want.Shape())
		}
		for i, wv := range want.Data() {
			if got.Data()[i] != wv {
				t.Fatalf("%s path=%v input %v: element %d = %g, reference %g", what, p, x.Shape(), i, got.Data()[i], wv)
			}
		}
		pool.Put(got)
	})
}

// TestConvPFusedDiffAllPaths is the shape matrix: batch sizes around the
// worker split, plane sizes from a single band to several, non-square
// and odd planes, and channel/filter counts on every side of the 4-wide
// filter tile.
func TestConvPFusedDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pool := tensor.NewPool()
	batches := []int{1, 2, 31, 32, 33}
	sizes := [][2]int{{4, 4}, {8, 8}, {12, 20}, {16, 16}, {32, 32}, {5, 7}, {1, 3}}
	tails := []int{1, 3, 4, 5, 16, 24}
	trial := 0
	for _, hw := range sizes {
		for _, c := range tails {
			for _, f := range tails {
				h, w := hw[0], hw[1]
				if h*w >= 256 && (c+f)%3 != 0 && !(c == 24 && f == 16) {
					continue // the big planes take a third of the channel matrix
				}
				n := batches[trial%len(batches)]
				if testing.Short() && n > 2 && h*w*c*f > 1<<14 {
					n = 2
				}
				trial++
				blk := newDiffConvP(rng, c, f)
				x := tensor.New(n, c, h, w)
				if trial%2 == 0 {
					fillSigns(x.Data(), rng)
				} else {
					x.FillUniform(rng, -1, 1)
				}
				want := convpOracle(t, blk, x)
				checkAllPaths(t, fmt.Sprintf("c=%d f=%d", c, f), blk, x, want, pool)
			}
		}
	}
	// Every batch size on the two serving geometries.
	for _, g := range [][4]int{{3, 4, 32, 32}, {24, 16, 16, 16}} {
		blk := newDiffConvP(rng, g[0], g[1])
		for _, n := range batches {
			x := tensor.New(n, g[0], g[2], g[3])
			x.FillUniform(rng, -1, 1)
			checkAllPaths(t, "serving geometry", blk, x, convpOracle(t, blk, x), pool)
		}
	}
}

// TestConvPFusedSpecialsDiffAllPaths covers the inputs where a fused
// kernel can silently differ from the layers: NaN, ±Inf and −0 in the
// input, windows whose every convolution output is −Inf or NaN, pooled
// values exactly on batch norm's zero crossing, and all-zero channels
// (the feature map of an absent device).
func TestConvPFusedSpecialsDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	pool := tensor.NewPool()

	t.Run("nan-inf-negzero", func(t *testing.T) {
		for trial := 0; trial < 12; trial++ {
			c, f := 1+rng.Intn(6), 1+rng.Intn(9)
			blk := newDiffConvP(rng, c, f)
			x := tensor.New(2, c, 12, 20)
			fillSpecials(x.Data(), rng)
			if trial%2 == 0 { // sparse specials: most windows keep finite values
				for i := range x.Data() {
					if rng.Intn(8) != 0 {
						x.Data()[i] = rng.Float32()*2 - 1
					}
				}
			}
			checkAllPaths(t, "specials", blk, x, convpOracle(t, blk, x), pool)
		}
	})

	t.Run("all-neg-inf-windows", func(t *testing.T) {
		// Filter 0 all +1 and filter 1 all −1 turn a −Inf input region
		// into −Inf and +Inf outputs; the mixed filters give NaN there
		// (Inf − Inf), so their windows are all-NaN and pool to −Inf.
		blk := newDiffConvP(rng, 2, 4)
		lat := blk.Conv.Latent.Value.Data()
		for i := 0; i < 2*9; i++ {
			lat[i], lat[2*9+i] = 1, -1
		}
		blk.SyncWeights()
		x := tensor.New(2, 2, 16, 16)
		x.FillUniform(rng, -1, 1)
		for ci := 0; ci < 2; ci++ {
			for y := 2; y < 12; y++ {
				for xx := 3; xx < 13; xx++ {
					x.Set(float32(math.Inf(-1)), 0, ci, y, xx)
				}
			}
		}
		x.Sample(1)[0] = float32(math.Inf(-1)) // a corner window too
		checkAllPaths(t, "-Inf region", blk, x, convpOracle(t, blk, x), pool)
	})

	t.Run("zero-crossing", func(t *testing.T) {
		for _, g := range [][4]int{{3, 4, 32, 32}, {24, 16, 16, 16}, {16, 16, 8, 8}, {5, 3, 12, 20}} {
			blk := crossingConvP(rng, g[0], g[1])
			x := tensor.New(3, g[0], g[2], g[3])
			fillSigns(x.Data(), rng)
			// Count the ties through the layers, so the case cannot
			// silently stop being exercised.
			pre := blk.BN.Forward(blk.Pool.Forward(blk.Conv.Forward(x, false), false), false)
			ties := 0
			for _, v := range pre.Data() {
				if v == 0 {
					ties++
				}
			}
			if ties == 0 {
				t.Fatalf("geometry %v: no pooled value on the zero crossing", g)
			}
			checkAllPaths(t, "zero crossing", blk, x, convpOracle(t, blk, x), pool)
		}
	})

	t.Run("absent-device-channels", func(t *testing.T) {
		blk := crossingConvP(rng, 24, 16)
		x := tensor.New(2, 24, 16, 16)
		fillSigns(x.Data(), rng)
		for _, ci := range []int{4, 5, 6, 7, 20, 21, 22, 23} { // devices 1 and 5 absent
			for ni := 0; ni < 2; ni++ {
				clear(x.Sample(ni)[ci*256 : (ci+1)*256])
			}
		}
		checkAllPaths(t, "zero channels", blk, x, convpOracle(t, blk, x), pool)
		x.Zero()
		checkAllPaths(t, "all-zero input", blk, x, convpOracle(t, blk, x), pool)
	})
}

// guarded returns a tensor of the given shape whose storage is followed
// by sentinels, and a check that they are intact.
func guarded(shape ...int) (*tensor.Tensor, func() bool) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	const guard = 64
	backing := make([]float32, n+guard)
	for i := range backing {
		backing[i] = 12345678
	}
	return tensor.FromSlice(backing[:n:n], shape...), func() bool {
		for _, v := range backing[n:] {
			if v != 12345678 {
				return false
			}
		}
		return true
	}
}

// TestConvPFusedGuardedBuffers hands the fused kernel an output
// tensor and a scratch buffer that are followed by sentinels (by priming
// the pool with them): the assembly kernels must stay inside both, and
// must not depend on what a dirty buffer held.
func TestConvPFusedGuardedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	defer tensor.SetMaxWorkers(0)
	tensor.SetMaxWorkers(1) // one worker: exactly one scratch draw, ours
	for _, g := range [][5]int{{2, 3, 4, 32, 32}, {2, 24, 16, 16, 16}, {1, 16, 16, 8, 8}, {3, 5, 7, 9, 11}, {1, 1, 1, 1, 1}} {
		n, c, f, h, w := g[0], g[1], g[2], g[3], g[4]
		blk := newDiffConvP(rng, c, f)
		x := tensor.New(n, c, h, w)
		x.FillUniform(rng, -1, 1)
		want := convpOracle(t, blk, x)
		pl := planFused(c, h, w, f)
		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			pool := tensor.NewPool()
			out, outIntact := guarded(n, f, pl.ph, pl.pw)
			scratch, scratchIntact := guarded(pl.size)
			pool.Put(out)
			pool.Put(scratch)
			got := blk.ForwardPooled(x, pool)
			if got != out {
				t.Fatalf("path=%v %v: forward did not draw the primed output tensor", p, g)
			}
			for i, wv := range want.Data() {
				if got.Data()[i] != wv {
					t.Fatalf("path=%v %v: element %d = %g, reference %g", p, g, i, got.Data()[i], wv)
				}
			}
			if !outIntact() || !scratchIntact() {
				t.Fatalf("path=%v %v: wrote past the output (intact=%v) or the scratch (intact=%v)", p, g, outIntact(), scratchIntact())
			}
		})
	}
}

// TestConvPFusedPoolDraws pins the fused block's memory contract
// on the serving geometries: from a fresh pool, one forward draws its
// output tensor and one scratch buffer of at most 32 KB per worker —
// no batch-extent intermediate — where the layered path draws an im2col
// buffer and three batch-wide tensors.
func TestConvPFusedPoolDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	defer tensor.SetMaxWorkers(0)
	for _, g := range [][4]int{{3, 4, 32, 32}, {24, 16, 16, 16}, {24, 8, 16, 16}, {16, 16, 8, 8}} {
		c, f, h, w := g[0], g[1], g[2], g[3]
		blk := newDiffConvP(rng, c, f)
		pl := planFused(c, h, w, f)
		if pl.size*4 > 32<<10 {
			t.Fatalf("geometry %v: scratch is %d bytes, over the 32 KB budget", g, pl.size*4)
		}
		for _, tc := range []struct{ n, workers int }{{1, 1}, {32, 1}, {32, 2}, {1, 2}} {
			tensor.SetMaxWorkers(tc.workers)
			x := tensor.New(tc.n, c, h, w)
			x.FillUniform(rng, -1, 1)
			forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
				pool := tensor.NewPool()
				y := blk.ForwardPooled(x, pool)
				drawn := pool.Retained() // everything but the output is back
				for size, count := range drawn {
					if size != pl.size || count > tc.workers {
						t.Fatalf("path=%v %v n=%d workers=%d: drew %d buffer(s) of %d floats besides the output; want at most %d of %d",
							p, g, tc.n, tc.workers, count, size, tc.workers, pl.size)
					}
				}
				if len(drawn) != 1 {
					t.Fatalf("path=%v %v: draws besides the output = %v, want one size class", p, g, drawn)
				}
				if y.Size() != tc.n*f*pl.ph*pl.pw {
					t.Fatalf("output size %d", y.Size())
				}
			})
		}
	}
}

// TestConvPFusedSharedPool runs eight goroutines through one block
// and one pool, mixing batch sizes so the sample split, the filter split
// and the serial path interleave; under -race it is the data-race gate
// for the fused kernel and its assembly wrappers.
func TestConvPFusedSharedPool(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	defer tensor.SetMaxWorkers(0)
	tensor.SetMaxWorkers(4)
	blk := newDiffConvP(rng, 24, 16)
	xs := make([]*tensor.Tensor, 3)
	wants := make([]*tensor.Tensor, 3)
	for i, n := range []int{1, 2, 5} {
		xs[i] = tensor.New(n, 24, 16, 16)
		fillSigns(xs[i].Data(), rng)
		wants[i] = convpOracle(t, blk, xs[i])
	}
	pool := tensor.NewPool()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				i := (g + r) % len(xs)
				got := blk.ForwardPooled(xs[i], pool)
				for j, wv := range wants[i].Data() {
					if got.Data()[j] != wv {
						errs <- fmt.Errorf("goroutine %d round %d batch %d: element %d diverged", g, r, xs[i].Dim(0), j)
						return
					}
				}
				pool.Put(got)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzConvPParity lets the fuzzer choose the geometry, the weights, the
// batch-norm statistics and the raw bit patterns of the input (so −0,
// denormals, ±Inf and every NaN payload are reachable) and requires the
// fused kernel on every path to reproduce the layered reference. Three
// bits of each filter's parameter word plant what the bit-domain
// thresholds must survive: a NaN γ or β, γ = 0, or an exact zero crossing
// (scale 1, shift −mean, the mean an integer); γ < 0 comes from the
// random range. With the top bit of nr set, input words map to +1, −1, +0
// and −0 by their low two bits, except one in sixteen, which keeps its
// raw bits; ForwardPooled runs that float input on the float tile, and
// the all-ternary version of it, as planes, runs the XNOR convolution
// through the bit-plane forwards, ForwardPacked and ForwardPlanes.
func FuzzConvPParity(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint8(4), uint8(32), uint8(32), []byte("convp-parity-seed-0123456789"))
	f.Add(uint8(2), uint8(5), uint8(3), uint8(12), uint8(20), []byte{0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x00, 0x00, 0x00, 0x80})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(0x81), uint8(8), uint8(8), uint8(15), uint8(15), []byte("ternary-seed-all-four-values-0123"))
	f.Add(uint8(0x80), uint8(5), uint8(7), uint8(9), uint8(13), []byte{0x00, 0x01, 0x02, 0x03, 0x10, 0x21, 0x32, 0x43, 0xf7, 0xff, 0x7f})
	f.Add(uint8(0x82), uint8(7), uint8(8), uint8(16), uint8(16), []byte{0x00, 0x80, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x80, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, nr, cr, fr, hr, wr uint8, raw []byte) {
		n, c, fl := 1+int(nr)%3, 1+int(cr)%9, 1+int(fr)%9
		h, w := 1+int(hr)%20, 1+int(wr)%20
		word := func(i int) uint32 {
			if len(raw) < 4 {
				return uint32(i+1) * 2654435761
			}
			return binary.LittleEndian.Uint32(raw[(4*i)%(len(raw)-3):])
		}
		blk := NewConvP(rand.New(rand.NewSource(1)), "fuzz", c, fl)
		for i := range blk.Conv.Latent.Value.Data() {
			blk.Conv.Latent.Value.Data()[i] = float32(int32(word(i)>>7&2) - 1)
		}
		nan := float32(math.NaN())
		for ci := 0; ci < fl; ci++ {
			u := word(1000 + ci)
			g, b := float32(int32(u&7)-3)/2, float32(int32(u>>3&15)-7)/4
			mean, v := float32(int32(u>>7&31)-15), float32(u>>12&7)/2+0.25
			switch u >> 15 & 7 {
			case 0:
				g = nan
			case 1:
				b = nan
			case 2:
				g = 0
			case 3:
				g, b, v = 2, 0, 4-blk.BN.Eps
			}
			blk.BN.Gamma.Value.Data()[ci], blk.BN.Beta.Value.Data()[ci] = g, b
			blk.BN.RunningMean.Data()[ci], blk.BN.RunningVar.Data()[ci] = mean, v
		}
		blk.SyncWeights()
		x, xt := tensor.New(n, c, h, w), tensor.New(n, c, h, w)
		for i := range x.Data() {
			u := word(2000 + i)
			x.Data()[i] = math.Float32frombits(u)
			xt.Data()[i] = [4]float32{1, -1, 0, negZero}[u&3]
			if nr&0x80 != 0 && u&0xf0 != 0xf0 {
				x.Data()[i] = xt.Data()[i]
			}
		}
		want := convpOracle(t, blk, x)
		var wantBits *tensor.Tensor
		if nr&0x80 != 0 {
			wantBits = convpOracle(t, blk, xt)
		}

		prev := tensor.CurrentKernelPath()
		defer tensor.SetKernelPath(prev)
		for _, p := range tensor.KernelPaths() {
			if err := tensor.SetKernelPath(p); err != nil {
				t.Fatal(err)
			}
			got := blk.ForwardPooled(x, nil)
			for i, wv := range want.Data() {
				if got.Data()[i] != wv {
					t.Fatalf("path=%v n=%d c=%d f=%d %dx%d: element %d = %g, reference %g", p, n, c, fl, h, w, i, got.Data()[i], wv)
				}
			}
			if wantBits == nil {
				continue
			}
			if !slices.Equal(blk.ForwardPacked(planesOf(xt), nil), packedOf(wantBits)) {
				t.Fatalf("path=%v n=%d c=%d f=%d %dx%d: ForwardPacked differs from the packed reference", p, n, c, fl, h, w)
			}
			if !samePlanes(blk.ForwardPlanes(planesOf(xt), nil), planesOf(wantBits)) {
				t.Fatalf("path=%v n=%d c=%d f=%d %dx%d: ForwardPlanes differs from the reference's planes", p, n, c, fl, h, w)
			}
		}
	})
}
