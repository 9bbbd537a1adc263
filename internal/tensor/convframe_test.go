package tensor

import (
	"math/rand"
	"testing"
)

// frameRecIndex is the record index of image column c (−1 ≤ c < w) in
// a row record with half even and half odd slots, as the file comment of
// convframe.go lays it out: column −1 at 0, odd columns from 1, even
// columns from 1+half.
func frameRecIndex(c, half int) int {
	switch {
	case c < 0:
		return 0
	case c%2 == 1:
		return 1 + c/2
	default:
		return 1 + half + c/2
	}
}

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

// frameSentinel marks int16 slots no kernel may write.
const frameSentinel = int16(0x5A5A)

// TestConvFrame3x3DiffAllPaths pins the byte-frame convolution's raw
// int16 sums on both paths to the formula in its contract, computed in
// int for each real output from the ±1 weights and the padded bytes —
// before any pool or threshold, where an error shows in every sum and
// not only at a threshold crossing. It covers every channel count up to
// FrameMaxChannels (all-255 bytes under all-+1 or all-−1 weights reach
// the int16 bound), filter counts on both sides of the simd tile of
// four, widths on both sides of its 32 columns, zero to several rows,
// a filter stride larger than a filter's records, and junk in the band's
// slack. Column −1, row −1, the gap between filters and everything past
// the last record must stay untouched.
func TestConvFrame3x3DiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	widths := []int{1, 2, 7, 8, 15, 16, 31, 32, 33, 40, 63, 64, 65}
	for trial := 0; trial < 160; trial++ {
		ch := 1 + trial%FrameMaxChannels
		filters := []int{1, 3, 4, 5, 8, 9}[rng.Intn(6)]
		w := widths[rng.Intn(len(widths))]
		rows := []int{0, 1, 2, 3, 5, 8}[rng.Intn(6)]
		wp, plane := w+2, (rows+2)*(w+2)
		rs, half := FrameRowLen(w), FrameHalfWidth(w)
		ds := (rows+1)*rs + rng.Intn(3)*7

		extreme := trial%10 == 9
		wt := make([]float32, filters*ch*9)
		for i := range wt {
			wt[i] = float32(rng.Intn(2)*2 - 1)
			if extreme {
				wt[i] = float32(1 - 2*(i/(ch*9)%2)) // every filter all +1 or all −1
			}
		}
		src := make([]byte, ch*plane+FrameBandSlack)
		for i := range src {
			src[i] = byte(rng.Intn(256)) // the slack keeps its junk
		}
		for c := 0; c < ch; c++ {
			for y := 0; y < rows+2; y++ {
				for x := 0; x < wp; x++ {
					at := c*plane + y*wp + x
					switch {
					case y == 0 || y == rows+1 || x == 0 || x == wp-1:
						src[at] = 0
					case extreme:
						src[at] = 255
					}
				}
			}
		}
		fw := FrameWeights(nil, wt, filters, ch)

		n := (filters-1)*ds + (rows+1)*rs
		for _, p := range fusedPaths() {
			backing := make([]int16, n+guardLen)
			for i := range backing {
				backing[i] = frameSentinel
			}
			dst := backing[:n:n]
			ConvFrame3x3(p, dst, ds, fw, src, ch, plane, wp)
			mayWrite := make([]bool, len(backing))
			for f := 0; f < filters; f++ {
				for oy := 0; oy < rows; oy++ {
					rec := f*ds + (oy+1)*rs
					for i := 1; i < rs; i++ {
						mayWrite[rec+i] = true // may be written; checked below where it is a column
					}
					for ox := 0; ox < w; ox++ {
						want := 0
						for c := 0; c < ch; c++ {
							for ky := 0; ky < 3; ky++ {
								for kx := 0; kx < 3; kx++ {
									want += int(wt[((f*ch+c)*3+ky)*3+kx]) * int(src[c*plane+(oy+ky)*wp+ox+kx])
								}
							}
						}
						if got := dst[rec+frameRecIndex(ox, half)]; int(got) != want {
							t.Fatalf("path=%v ch=%d filters=%d w=%d rows=%d: filter %d (%d,%d) = %d, formula %d", p, ch, filters, w, rows, f, oy, ox, got, want)
						}
					}
				}
			}
			for i, v := range backing {
				if !mayWrite[i] && v != frameSentinel {
					t.Fatalf("path=%v ch=%d filters=%d w=%d rows=%d ds=%d: wrote slot %d (filter %d, offset %d) outside the row records", p, ch, filters, w, rows, ds, i, i/ds, i%ds)
				}
			}
		}
	}
}

// TestPoolFrameThresholdDiffAllPaths pins the byte-frame pool on both
// paths to its contract, read off a logical image of rows −1 … 2·prows
// and columns −1 … w−1 (padding −32768): bit off+j·w/2+px is set when
// s·m > t1, m the maximum of rows 2j−1 … 2j+1 and columns 2px−1 … 2px+1,
// computed in int. It covers even widths on both sides of the simd
// groups of 16 outputs and of one 64-bit run, pooled rows past the simd
// path's 64 per call, every bit offset within a byte, both signs of s,
// thresholds at, next to and beyond the sums, and row −1 either padding
// or a real row (a band that starts inside the image). Bits outside the
// output run must keep their values.
func TestPoolFrameThresholdDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const pad = -32768
	widths := []int{2, 4, 14, 16, 30, 32, 34, 64, 66, 126, 128, 130}
	for trial := 0; trial < 200; trial++ {
		w := widths[rng.Intn(len(widths))]
		prows := []int{1, 2, 3, 8, 16, 63, 64, 65}[rng.Intn(8)]
		if w > 64 && prows > 16 {
			prows = 16 + rng.Intn(2)*49 // keep the big planes few
		}
		pw, rs, half := w/2, FrameRowLen(w), FrameHalfWidth(w)
		off := rng.Intn(16)
		s := int16(rng.Intn(2)*2 - 1)
		span := []int{3, 40, 32130}[trial%3] // small spans make ties with t1 common
		t1 := int16(rng.Intn(2*span+3) - span - 1)

		// img[r+1][c+1] is row r, column c.
		img := make([][]int, 2*prows+2)
		rec := make([]int16, (2*prows+1)*rs)
		for i := range rec {
			rec[i] = int16(rng.Intn(65536) - 32768) // slots past column w: never read
		}
		for r := range img {
			img[r] = make([]int, w+1)
			for c := range img[r] {
				switch {
				case c == 0, r == 0 && trial%2 == 0:
					img[r][c] = pad
				default:
					img[r][c] = rng.Intn(2*span+1) - span
				}
				if r <= 2*prows {
					rec[r*rs+frameRecIndex(c-1, half)] = int16(img[r][c])
				}
			}
		}

		n := (off + prows*pw + 7) / 8
		for _, p := range fusedPaths() {
			dst := make([]byte, n+8)
			for i := range dst {
				dst[i] = byte(rng.Intn(256))
			}
			for b := off; b < off+prows*pw; b++ {
				dst[b/8] &^= 1 << uint(b%8)
			}
			before := append([]byte(nil), dst...)
			PoolFrameThreshold(p, dst[:n], off, rec, w, prows, s, t1)
			for b := 0; b < 8*len(dst); b++ {
				got := dst[b/8]>>uint(b%8)&1 == 1
				if b < off || b >= off+prows*pw {
					if was := before[b/8]>>uint(b%8)&1 == 1; got != was {
						t.Fatalf("path=%v w=%d prows=%d off=%d: bit %d outside the run changed", p, w, prows, off, b)
					}
					continue
				}
				j, px := (b-off)/pw, (b-off)%pw
				m := pad
				for r := 2 * j; r <= 2*j+2; r++ {
					for c := 2 * px; c <= 2*px+2; c++ {
						m = max(m, img[r][c])
					}
				}
				if want := int(s)*m > int(t1); got != want {
					t.Fatalf("path=%v w=%d prows=%d off=%d s=%d t1=%d: row %d output %d = %v, reference %v (max %d)", p, w, prows, off, s, t1, j, px, got, want, m)
				}
			}
		}
	}
}

// TestOrBitsMatchesBitLoop pins OrBits, which both pool kernels end in,
// to a bit-at-a-time loop for every offset within two bytes and every
// run length up to 64, v holding k bits as every caller's does: it must
// or them in PackSigns order and leave every other bit alone.
func TestOrBitsMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for off := 0; off < 16; off++ {
		for k := 0; k <= 64; k++ {
			v := rng.Uint64()
			if k < 64 {
				v &= 1<<uint(k) - 1
			}
			dst := make([]byte, 12)
			rng.Read(dst)
			want := append([]byte(nil), dst...)
			for i := 0; i < k; i++ {
				if v>>uint(i)&1 == 1 {
					b := off + i
					want[b/8] |= 1 << uint(b%8)
				}
			}
			OrBits(dst, off, v, k)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("off=%d k=%d v=%016x: byte %d = %08b, want %08b", off, k, v, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestPoolKernelsRejectShortSlices checks the bound checks that stand
// in front of the simd kernels, which take raw pointers: each of
// ConvFrame3x3 and PoolFrameThreshold runs on slices
// of exactly the length its contract names and panics, on every path,
// when one of them is a single element short.
func TestPoolKernelsRejectShortSlices(t *testing.T) {
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return false
	}
	for _, path := range KernelPaths() {
		// ConvFrame3x3: 3 channels, 5 filters, 2 rows of 10 columns.
		const ch, filters, rows, w = 3, 5, 2, 10
		wp, plane, rs := w+2, (rows+2)*(w+2), FrameRowLen(w)
		ds := (rows + 1) * rs
		fw := FrameWeights(nil, make([]float32, filters*ch*9), filters, ch)
		dst := make([]int16, (filters-1)*ds+(rows+1)*rs)
		src := make([]byte, ch*plane+FrameBandSlack)
		if panics(func() { ConvFrame3x3(path, dst, ds, fw, src, ch, plane, wp) }) {
			t.Fatalf("path=%v: ConvFrame3x3 panicked on slices of the exact length", path)
		}
		if !panics(func() { ConvFrame3x3(path, dst[:len(dst)-1], ds, fw, src, ch, plane, wp) }) {
			t.Fatalf("path=%v: ConvFrame3x3 ran with dst one short", path)
		}
		if !panics(func() { ConvFrame3x3(path, dst, ds, fw, src[:len(src)-1], ch, plane, wp) }) {
			t.Fatalf("path=%v: ConvFrame3x3 ran with src one short", path)
		}

		// PoolFrameThreshold: 3 pooled rows of w/2 outputs from bit 5.
		const prows, off = 3, 5
		rec := make([]int16, 2*prows*rs+rs)
		bits := make([]byte, (off+prows*w/2+7)/8)
		if panics(func() { PoolFrameThreshold(path, bits, off, rec, w, prows, 1, 0) }) {
			t.Fatalf("path=%v: PoolFrameThreshold panicked on slices of the exact length", path)
		}
		if !panics(func() { PoolFrameThreshold(path, bits, off, rec[:len(rec)-1], w, prows, 1, 0) }) {
			t.Fatalf("path=%v: PoolFrameThreshold ran with records one short", path)
		}
		if !panics(func() { PoolFrameThreshold(path, bits[:len(bits)-1], off, rec, w, prows, 1, 0) }) {
			t.Fatalf("path=%v: PoolFrameThreshold ran with dst one short", path)
		}
	}
}
