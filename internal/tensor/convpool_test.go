package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fusedPaths are the dispatch paths the fused-ConvP kernels implement:
// the naive path never reaches them (it runs the layered composition).
func fusedPaths() []KernelPath {
	var out []KernelPath
	for _, p := range KernelPaths() {
		if p != KernelNaive {
			out = append(out, p)
		}
	}
	return out
}

// TestConvSign3x3DiffAllPaths pins the band convolution on both paths
// to the lowered oracle — im2col followed by the naive sign GEMM — bit
// for bit (any NaN matching any NaN), over channel and filter tails,
// odd sizes and ±Inf/NaN inputs, writing into a guard-padded
// destination.
func TestConvSign3x3DiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 20}
	chans := []int{1, 3, 4, 5, 16, 24}
	for trial := 0; trial < 120; trial++ {
		ch, f := chans[rng.Intn(len(chans))], chans[rng.Intn(len(chans))]
		h, w := dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))]
		x := New(1, ch, h, w)
		fillDiff(x.data, rng, trial%3 == 0)
		wt := make([]float32, f*ch*9)
		for i := range wt {
			wt[i] = float32(rng.Intn(2)*2 - 1)
		}

		rows, cols := Im2colShape(x, 3, 1, 1)
		lowered := make([]float32, rows*cols)
		Im2colInto(lowered, x, 0, 3, 1, 1)
		want := make([]float32, f*cols)
		gemmSignRows(want, wt, lowered, 0, f, rows, cols)

		wp := w + 2
		plane := (h + 2) * wp
		n := ConvSignSpan(h, wp)
		src := make([]float32, ch*plane+convSignLanes+2)
		for i := range src {
			src[i] = canonNaN32 // slack and junk must never reach a real output
		}
		for c := 0; c < ch; c++ {
			clear(src[c*plane : (c+1)*plane])
			for y := 0; y < h; y++ {
				copy(src[c*plane+(y+1)*wp+1:], x.data[(c*h+y)*w:(c*h+y+1)*w])
			}
		}
		// Split the filters at a random point so the f0/f1 range and the
		// SIMD kernel's filter tail are both exercised.
		cut := rng.Intn(f + 1)

		for _, p := range fusedPaths() {
			got, backing := makeGuarded(f * n)
			ConvSign3x3(p, got, n, wt, src, ch, plane, wp, h, 0, cut)
			ConvSign3x3(p, got, n, wt, src, ch, plane, wp, h, cut, f)
			for fi := 0; fi < f; fi++ {
				for oy := 0; oy < h; oy++ {
					for ox := 0; ox < w; ox++ {
						g, wv := got[fi*n+oy*wp+ox], want[fi*cols+oy*w+ox]
						if !sameBits32(g, wv) {
							t.Fatalf("path=%v ch=%d f=%d %dx%d: filter %d (%d,%d) = %g (%08x), oracle %g (%08x)",
								p, ch, f, h, w, fi, oy, ox, g, math.Float32bits(g), wv, math.Float32bits(wv))
						}
					}
				}
			}
			checkGuard(t, backing, f*n, "ConvSign3x3 "+p.String())
		}
	}
}

// poolAffineSignRef is the clipped-scan definition of one pooled,
// normalized, binarized output, written independently of the kernels:
// rows and columns outside the image are skipped rather than padded.
func poolAffineSignRef(rows [][]float32, w, px int, scale, shift float32) float32 {
	best := float32(math.Inf(-1))
	for _, r := range rows {
		for ix := 2*px - 1; ix <= 2*px+1; ix++ {
			if ix < 0 || ix >= w {
				continue
			}
			if v := r[ix]; v > best {
				best = v
			}
		}
	}
	if y := float32(scale*best) + shift; y >= 0 {
		return 1
	}
	return -1
}

// TestPoolAffineSignRowDiffAllPaths pins the fused pool row kernel on
// both paths to the clipped-scan reference over every width from 1 to
// 40 (so every SIMD group/tail split), with NaN, ±Inf, −0, all-NaN and
// all-−Inf windows, affines that put pooled values exactly on the zero
// crossing, zero and negative scales, and a guard-padded destination.
func TestPoolAffineSignRowDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	negInf := float32(math.Inf(-1))
	negZero := float32(math.Copysign(0, -1))
	for w := 1; w <= 40; w++ {
		for trial := 0; trial < 12; trial++ {
			pw := (w-1)/2 + 1
			img := make([][]float32, 3)
			padded := make([][]float32, 3)
			for r := range img {
				img[r] = make([]float32, w)
				for i := range img[r] {
					switch rng.Intn(12) {
					case 0:
						img[r][i] = canonNaN32
					case 1:
						img[r][i] = negInf
					case 2:
						img[r][i] = float32(math.Inf(1))
					case 3:
						img[r][i] = negZero
					case 4:
						img[r][i] = 0
					default:
						img[r][i] = float32(rng.Intn(9) - 4) // small integers: ties are common
					}
				}
				switch trial {
				case 0:
					fill32(img[r], canonNaN32)
				case 1:
					fill32(img[r], negInf)
				}
				padded[r] = make([]float32, w+2)
				padded[r][0], padded[r][w+1] = negInf, negInf
				copy(padded[r][1:], img[r])
			}
			scale, shift := float32(rng.Intn(5)-2), float32(rng.Intn(9)-4)
			if trial%4 == 3 {
				scale, shift = rng.Float32()*4-2, rng.Float32()*4-2
			}
			// A window clipped at the top or bottom sees two rows; the
			// kernel's caller passes one of them twice.
			clipped := trial%3 == 1
			refRows := img
			kr := [3][]float32{padded[0], padded[1], padded[2]}
			if clipped {
				refRows = img[:2]
				kr[2] = padded[1]
			}

			for _, p := range fusedPaths() {
				got, backing := makeGuarded(pw)
				PoolAffineSignRow(p, got, kr[0], kr[1], kr[2], scale, shift)
				for px := range got {
					if want := poolAffineSignRef(refRows, w, px, scale, shift); got[px] != want {
						t.Fatalf("path=%v w=%d trial=%d scale=%g shift=%g: output %d = %g, reference %g (rows %v)",
							p, w, trial, scale, shift, px, got[px], want, img)
					}
				}
				checkGuard(t, backing, pw, "PoolAffineSignRow "+p.String())
			}
		}
	}
}

// TestPoolThresholdRowsDiffAllPaths pins the threshold pool rows on both
// paths to the clipped-scan maximum compared with s·m ≥ t, for one to
// eight pooled rows of 1 to 64 outputs each (every SIMD group/tail split
// and the scalar widths), on integer rows — the bit path's convolution
// outputs — with thresholds on, next to and beyond the values, both signs
// of s, ±Inf thresholds and a clipped last window row.
func TestPoolThresholdRowsDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	negInf := float32(math.Inf(-1))
	for k := 1; k <= 64; k++ {
		w := 2 * k
		for p := 1; p <= 8 && p*k <= 64; p++ {
			for trial := 0; trial < 6; trial++ {
				// Conv rows 0 … 2p, padded to w+2 with −Inf, step 2 rows apart.
				wp := w + 2
				img := make([][]float32, 2*p+1)
				buf := make([]float32, (2*p+1)*wp)
				for r := range img {
					img[r] = make([]float32, w)
					for i := range img[r] {
						img[r][i] = float32(rng.Intn(19) - 9)
					}
					row := buf[r*wp : (r+1)*wp]
					row[0], row[w+1] = negInf, negInf
					copy(row[1:], img[r])
				}
				s, th := float32(rng.Intn(2)*2-1), float32(rng.Intn(21)-10)
				switch trial {
				case 0:
					th = negInf
				case 1:
					th = float32(math.Inf(1))
				}
				r0, r1, r2 := buf, buf[wp:], buf[2*wp:]
				clipped := p == 1 && trial%3 == 2 // the image's last pooled row: its third row repeats the second
				if clipped {
					r2 = r1
				}
				for _, path := range fusedPaths() {
					got := PoolThresholdRows(path, r0, r1, r2, 2*wp, p, k, s, th)
					if p*k < 64 && got>>uint(p*k) != 0 {
						t.Fatalf("path=%v p=%d k=%d: bits past p·k set: %b", path, p, k, got)
					}
					for j := 0; j < p; j++ {
						rows := img[2*j : 2*j+3]
						if clipped {
							rows = img[:2]
						}
						for px := 0; px < k; px++ {
							// The affine (s, −t) is ±1 at the threshold.
							want := poolAffineSignRef(rows, w, px, s, -th) > 0
							if got>>uint(j*k+px)&1 == 1 != want {
								t.Fatalf("path=%v p=%d k=%d trial=%d s=%g t=%g: row %d output %d = %v, reference %v", path, p, k, trial, s, th, j, px, !want, want)
							}
						}
					}
				}
			}
		}
	}
}

func fill32(s []float32, v float32) {
	for i := range s {
		s[i] = v
	}
}
