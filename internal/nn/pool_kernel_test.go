package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// TestPoolKernelMatchesTrainingScan pins the pool kernel every serving
// ConvP block ends in (tensor.PoolFrameThreshold, on each dispatch
// path) to this package's argmax-tracking training scan of MaxPool2D:
// for every window maximum m the scan finds, the kernel's bit must be
// s·m > t1. The kernel is driven the way the bit-plane block drives it —
// int16 records split by column parity, −32768 for column −1, row −1,
// column w of an odd width and the row below an odd height — over the
// plane sizes of the block's own differential test, odd sides included,
// on integer maps that reach the ±9C extremes of a 24-channel window and
// thresholds that put maxima exactly on the compare.
func TestPoolKernelMatchesTrainingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k, pad = 9 * 24, math.MinInt16
	sizes := [][2]int{{4, 4}, {8, 8}, {12, 20}, {16, 16}, {32, 32}, {5, 7}, {1, 1}, {9, 3}}
	batches := []int{31, 2, 1, 32, 33}
	for si, hw := range sizes {
		h, w := hw[0], hw[1]
		n, c := batches[si%len(batches)], 1+si%5
		x := tensor.New(n, c, h, w)
		for i := range x.Data() {
			switch rng.Intn(8) {
			case 0:
				x.Data()[i] = k
			case 1:
				x.Data()[i] = -k
			default:
				x.Data()[i] = float32(rng.Intn(13) - 6)
			}
		}
		pooled := NewMaxPool2D(3, 2, 1).Forward(x, true) // training scan
		ph, pw := pooled.Dim(2), pooled.Dim(3)
		// One threshold per plane: ±1 for s, and for t1 an integer where
		// 3×3 maxima of −6..6 concentrate, or now and then an int16 bound.
		s, t1 := make([]int16, n*c), make([]int16, n*c)
		for plane := range s {
			s[plane] = int16(rng.Intn(2)*2 - 1)
			t1[plane] = s[plane]*int16(4+rng.Intn(3)) - 1
			switch rng.Intn(8) {
			case 0:
				t1[plane] = math.MinInt16
			case 1:
				t1[plane] = math.MaxInt16
			}
		}
		onThreshold := 0
		for i, m := range pooled.Data() {
			if plane := i / (ph * pw); int(s[plane])*int(m) == int(t1[plane])+1 {
				onThreshold++
			}
		}
		if si < 5 && onThreshold == 0 {
			t.Fatalf("%dx%d: no window maximum landed on its threshold; the case is not exercised", h, w)
		}

		// Records of rows −1 … 2·ph−1, all padding until written.
		rs, half := tensor.FrameRowLen(w), tensor.FrameHalfWidth(w)
		rec := make([]int16, (2*ph+1)*rs)
		bits := make([]byte, (ph*pw+7)/8)
		for _, p := range tensor.KernelPaths() {
			for plane := 0; plane < n*c; plane++ {
				for i := range rec {
					rec[i] = pad
				}
				for y := 0; y < h; y++ {
					for xx, v := range x.Data()[(plane*h+y)*w : (plane*h+y+1)*w] {
						slot := 1 + half + xx/2
						if xx%2 == 1 {
							slot = 1 + xx/2
						}
						rec[(y+1)*rs+slot] = int16(v)
					}
				}
				clear(bits)
				tensor.PoolFrameThreshold(p, bits, 0, rec, w, ph, s[plane], t1[plane])
				for i := 0; i < ph*pw; i++ {
					m := pooled.Data()[plane*ph*pw+i]
					if got, want := bits[i/8]>>uint(i%8)&1 == 1, int(s[plane])*int(m) > int(t1[plane]); got != want {
						t.Fatalf("path=%v %dx%d plane %d: output (%d,%d) = %v, want %v (scan maximum %g, s %d, t1 %d)",
							p, h, w, plane, i/pw, i%pw, got, want, m, s[plane], t1[plane])
					}
				}
			}
		}
	}
}
