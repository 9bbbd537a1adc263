package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// TestPoolKernelMatchesTrainingScan pins the pool kernel of the
// bit-domain ConvP block (tensor.PoolThresholdRows, on both of its
// dispatch paths) to this package's argmax-tracking training scan of
// MaxPool2D: for every window maximum m the scan finds, the kernel's
// bit must be s·m ≥ t. The kernel is driven the way the block drives
// it — rows padded with −Inf on both sides, a row above the image all
// −Inf, a row below it replaced by its neighbour, up to 64 outputs a
// call over as many pooled rows as stay inside the image — over the
// batch sizes and plane sizes of the block's own differential test, with
// NaN, ±Inf and −0 in the input and thresholds that put integer maxima
// exactly on the compare.
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
		pooled := NewMaxPool2D(3, 2, 1).Forward(x, true) // training scan
		ph, pw := pooled.Dim(2), pooled.Dim(3)
		// One threshold per plane: ±1 for s, and for t an integer where
		// 3×3 maxima of −6..6 concentrate, or now and then ±Inf.
		s, th := make([]float32, n*c), make([]float32, n*c)
		for plane := range s {
			s[plane] = float32(rng.Intn(2)*2 - 1)
			th[plane] = s[plane] * float32(4+rng.Intn(3))
			switch rng.Intn(8) {
			case 0:
				th[plane] = negInf
			case 1:
				th[plane] = float32(math.Inf(1))
			}
		}
		onThreshold := 0
		for i, m := range pooled.Data() {
			if plane := i / (ph * pw); s[plane]*m == th[plane] {
				onThreshold++
			}
		}
		if si < 5 && onThreshold == 0 {
			t.Fatalf("%dx%d: no window maximum landed on its threshold; the case is not exercised", h, w)
		}

		// The padded plane: row 0 and column 0 are the −Inf border.
		wp := w + 2
		padded := make([]float32, (h+2)*wp)
		for _, p := range tensor.KernelPaths()[1:] {
			for plane := 0; plane < n*c; plane++ {
				for i := range padded {
					padded[i] = negInf
				}
				for y := 0; y < h; y++ {
					copy(padded[(y+1)*wp+1:], x.Data()[(plane*h+y)*w:(plane*h+y+1)*w])
				}
				for py := 0; py < ph; {
					top, mid := padded[2*py*wp:], padded[(2*py+1)*wp:]
					bot := mid
					nr, k := 1, min(64, pw)
					if q := (h - 2*py) / 2; q > 0 {
						bot = padded[(2*py+2)*wp:]
						if pw <= 64 {
							nr = min(64/pw, ph-py, q)
						}
					}
					for px := 0; px < pw; px += k {
						k = min(k, pw-px)
						bits := tensor.PoolThresholdRows(p, top[2*px:], mid[2*px:], bot[2*px:], 2*wp, nr, k, s[plane], th[plane])
						for j := 0; j < nr; j++ {
							for i := 0; i < k; i++ {
								m := pooled.Data()[(plane*ph+py+j)*pw+px+i]
								if got, want := bits>>uint(j*k+i)&1 == 1, s[plane]*m >= th[plane]; got != want {
									t.Fatalf("path=%v %dx%d plane %d: output (%d,%d) = %v, want %v (scan maximum %g, s %g, t %g)",
										p, h, w, plane, py+j, px+i, got, want, m, s[plane], th[plane])
								}
							}
						}
					}
					py += nr
				}
			}
		}
	}
}
