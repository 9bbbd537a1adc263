package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// TestPoolKernelMatchesTrainingScan pins the pool kernel of the fused
// ConvP block (tensor.PoolAffineSignRow, on both of its dispatch paths)
// to this package's layers: the argmax-tracking training scan of
// MaxPool2D, BatchNorm's inference transform, and the `>= 0` sign. The
// kernel is driven the way the fused block drives it — rows padded with
// −Inf on both sides, a row above the image all −Inf, a row below it
// replaced by its neighbour — over the batch sizes and plane sizes of
// the fused block's own differential test, with NaN, ±Inf and −0 in the
// input and batch-norm statistics that put integer pooled values
// exactly on the zero crossing.
func TestPoolKernelMatchesTrainingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negInf := float32(math.Inf(-1))
	sizes := [][2]int{{4, 4}, {8, 8}, {12, 20}, {16, 16}, {32, 32}, {5, 7}, {1, 1}, {9, 3}}
	batches := []int{31, 2, 1, 32, 33}
	for si, hw := range sizes {
		h, w := hw[0], hw[1]
		n, c := batches[si%len(batches)], 1+si%5
		x := tensor.New(n, c, h, w)
		for i := range x.Data() {
			switch rng.Intn(16) {
			case 0:
				x.Data()[i] = float32(math.NaN())
			case 1:
				x.Data()[i] = negInf
			case 2:
				x.Data()[i] = float32(math.Inf(1))
			case 3:
				x.Data()[i] = float32(math.Copysign(0, -1))
			default:
				x.Data()[i] = float32(rng.Intn(13) - 6)
			}
		}
		bn := NewBatchNorm("t", c)
		for ci := 0; ci < c; ci++ {
			// inv = 1/√4 exactly, so scale = γ/2 and the crossing sits on
			// the integer running mean when β = 0.
			bn.RunningVar.Data()[ci] = 4 - bn.Eps
			bn.Gamma.Value.Data()[ci] = float32(2 * (rng.Intn(5) - 2))
			bn.RunningMean.Data()[ci] = float32(4 + rng.Intn(3)) // where 3×3 maxima of −6..6 concentrate
			if ci%2 == 1 {
				bn.Beta.Value.Data()[ci] = rng.Float32() - 0.5
			}
		}
		pool := NewMaxPool2D(3, 2, 1)
		pooled := pool.Forward(x, true) // training scan
		want := bn.Forward(pooled, false)
		ph, pw := pooled.Dim(2), pooled.Dim(3)
		onCrossing := 0
		for i, v := range want.Data() {
			if v == 0 {
				onCrossing++
			}
			if v >= 0 {
				want.Data()[i] = 1
			} else {
				want.Data()[i] = -1
			}
		}
		if si < 5 && onCrossing == 0 {
			t.Fatalf("%dx%d: no pooled value landed on the batch-norm zero crossing; the case is not exercised", h, w)
		}

		// The padded plane: row 0 and column 0 are the −Inf border.
		wp := w + 2
		padded := make([]float32, (h+2)*wp)
		for _, p := range tensor.KernelPaths()[1:] {
			got := make([]float32, pw)
			for plane := 0; plane < n*c; plane++ {
				for i := range padded {
					padded[i] = negInf
				}
				for y := 0; y < h; y++ {
					copy(padded[(y+1)*wp+1:], x.Data()[(plane*h+y)*w:(plane*h+y+1)*w])
				}
				scale, shift := bn.InferenceAffine(plane % c)
				for py := 0; py < ph; py++ {
					top, mid := padded[2*py*wp:], padded[(2*py+1)*wp:]
					bot := mid
					if 2*py+1 < h {
						bot = padded[(2*py+2)*wp:]
					}
					tensor.PoolAffineSignRow(p, got, top, mid, bot, scale, shift)
					for px, g := range got {
						if wv := want.Data()[(plane*ph+py)*pw+px]; g != wv {
							t.Fatalf("path=%v %dx%d plane %d: output (%d,%d) = %g, layers give %g (pooled %g)",
								p, h, w, plane, py, px, g, wv, pooled.Data()[(plane*ph+py)*pw+px])
						}
					}
				}
			}
		}
	}
}
