package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fusedPaths are the dispatch paths the ConvP pool and frame kernels
// implement: the naive path runs the portable kernel, which the go path
// covers.
func fusedPaths() []KernelPath {
	var out []KernelPath
	for _, p := range KernelPaths() {
		if p != KernelNaive {
			out = append(out, p)
		}
	}
	return out
}

// poolMaxRef is the clipped-scan maximum of one pooled output, written
// independently of the kernels: rows and columns outside the image are
// skipped rather than padded, and a value replaces the maximum only when
// it compares greater.
func poolMaxRef(rows [][]float32, w, px int) float32 {
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
	return best
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
							want := s*poolMaxRef(rows, w, px) >= th
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
