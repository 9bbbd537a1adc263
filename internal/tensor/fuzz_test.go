package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzFill derives matrix elements from the fuzzer's raw byte pool:
// overlapping 4-byte windows reinterpreted as float32 bits, so the
// fuzzer can reach every bit pattern — denormals, ±0, ±Inf, any NaN
// payload — not just round numbers. Short pools fall back to a
// deterministic hash of the index.
func fuzzFill(dst []float32, raw []byte, off int) {
	for i := range dst {
		var u uint32
		if len(raw) >= 4 {
			u = binary.LittleEndian.Uint32(raw[(off+4*i)%(len(raw)-3):])
		} else {
			u = uint32(off+i) * 2654435761
		}
		dst[i] = math.Float32frombits(u)
	}
}

// FuzzGemmParity drives every Gemm dispatch path against the naive row
// oracle on fuzzer-chosen shapes and raw float bit patterns, compared
// under sameBits32 (NaN placement pinned, payloads free).
func FuzzGemmParity(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint8(32), []byte("gemm-seed-0123456789abcdefghijklmnopqrstuv"))
	f.Add(uint8(0), uint8(1), uint8(17), []byte{})
	f.Add(uint8(5), uint8(3), uint8(7), []byte("\x00\x00\xc0\x7f\x00\x00\x80\xff\x00\x00\x00\x80\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, raw []byte) {
		m, k, n := int(mr)%24, int(kr)%24, int(nr)%40

		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fuzzFill(a, raw, 0)
		fuzzFill(b, raw, 1)
		want := make([]float32, m*n)
		matmulRows(want, a, b, 0, m, k, n)

		prev := CurrentKernelPath()
		defer SetKernelPath(prev)
		for _, p := range KernelPaths() {
			if err := SetKernelPath(p); err != nil {
				t.Fatal(err)
			}
			got := make([]float32, m*n)
			Gemm(got, a, b, m, k, n)
			for i, w := range want {
				if !sameBits32(got[i], w) {
					t.Fatalf("path=%v m=%d k=%d n=%d: Gemm element %d = %08x, oracle %08x",
						p, m, k, n, i, math.Float32bits(got[i]), math.Float32bits(w))
				}
			}
		}
	})
}

// FuzzPoolFrameThresholdParity pins PoolFrameThreshold on every dispatch
// path to its contract, computed in int from a logical image whose
// padding is −32768, as the bit-plane block pads its XNOR counts. The
// fuzzer picks the width w — odd and even, on both sides of the simd
// groups of 16 outputs — the pooled rows, the bit offset, s = ±1, the
// count range 9C, and per record slot a count anywhere in [−9C, 9C]
// with the extremes ±9C drawn often. Its threshold is either on the
// counts (ties included) or one that makes the filter's output constant:
// int16's bounds, which no count reaches, and ±(9C+1) just past them. Row −1 and the last row are padding
// or real rows, as in a band of a taller image or a frame of odd
// height. Bits outside the output run must keep their values.
func FuzzPoolFrameThresholdParity(f *testing.F) {
	f.Add(uint8(15), uint8(8), uint8(3), uint8(0), uint16(216), []byte("pool-frame-seed-0123456789abcdef"))
	f.Add(uint8(16), uint8(4), uint8(0), uint8(0x81), uint16(144), []byte{0xff, 0x00, 0x7f, 0x80, 0x01})
	f.Add(uint8(1), uint8(1), uint8(7), uint8(0x42), uint16(9), []byte{})
	f.Add(uint8(33), uint8(70), uint8(5), uint8(0x23), uint16(32130), []byte{0x00, 0xff})
	f.Fuzz(func(t *testing.T, wr, pr, offr, mode uint8, kr uint16, raw []byte) {
		w, prows, off := 1+int(wr)%70, 1+int(pr)%70, int(offr)%8
		k := 1 + int(kr)%32130 // 9C, the counts' bound
		s := int16(1)
		if mode&1 != 0 {
			s = -1
		}
		rs, half, pw := FrameRowLen(w), FrameHalfWidth(w), (w+1)/2
		draw := func(i int) int {
			var u uint32
			if len(raw) >= 2 {
				u = uint32(raw[i%len(raw)]) | uint32(raw[(i+1)%len(raw)])<<8
			} else {
				u = uint32(i+1) * 2654435761 >> 8
			}
			switch u % 8 {
			case 0:
				return k
			case 1:
				return -k
			}
			return int(u>>3)%(2*k+1) - k
		}
		var t1 int16
		switch mode >> 1 % 8 {
		case 0:
			t1 = math.MaxInt16 // never +1
		case 1:
			t1 = math.MinInt16 // always +1
		case 2:
			t1 = int16(k) // past every count: never +1
		case 3:
			t1 = int16(-k - 1) // below every count: always +1
		default:
			t1 = int16(draw(7919) - 1) // on a count: ties occur
		}

		// img[r][c] is row r−1, column c−1: row −1 (unless the run starts
		// inside an image), column −1, column w and, for an odd image
		// height, the last row are padding.
		const pad = math.MinInt16
		img := make([][]int, 2*prows+1)
		rec := make([]int16, (2*prows+1)*rs)
		for i := range rec {
			rec[i] = int16(draw(3 * i)) // slots no window reads
		}
		for r := range img {
			img[r] = make([]int, w+2)
			for c := range img[r] {
				img[r][c] = draw(r*(w+2) + c)
				if c == 0 || c == w+1 || r == 0 && mode&0x10 == 0 || r == 2*prows && mode&0x20 != 0 {
					img[r][c] = pad
				}
				switch col := c - 1; {
				case col < 0:
					rec[r*rs] = int16(img[r][c])
				case col%2 == 1:
					rec[r*rs+1+col/2] = int16(img[r][c])
				case col < w:
					rec[r*rs+1+half+col/2] = int16(img[r][c])
				}
			}
		}

		n := (off + prows*pw + 7) / 8
		for _, p := range KernelPaths() {
			dst := make([]byte, n+4)
			for i := range dst {
				dst[i] = byte(draw(5000+i) >> 2)
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
					t.Fatalf("path=%v w=%d prows=%d off=%d s=%d t1=%d k=%d: row %d output %d = %v, reference %v (max %d)", p, w, prows, off, s, t1, k, j, px, got, want, m)
				}
			}
		}
	})
}
