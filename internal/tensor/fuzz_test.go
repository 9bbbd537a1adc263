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

// convSignRef is ConvSign3x3's formula written out with nothing shared
// with the kernels: for every real output (row oy < rows, column
// ox < wp−2) the sum from +0 of w·src over ascending (c, ky, kx), each
// product rounded on its own (exact for a ±1 weight).
func convSignRef(dst []float32, ds int, w, src []float32, ch, plane, wp, rows, f int) {
	for fi := 0; fi < f; fi++ {
		for oy := 0; oy < rows; oy++ {
			for ox := 0; ox < wp-2; ox++ {
				j := oy*wp + ox
				var s float32
				for c := 0; c < ch; c++ {
					for ky := 0; ky < 3; ky++ {
						for kx := 0; kx < 3; kx++ {
							s += float32(w[fi*ch*9+(c*3+ky)*3+kx] * src[c*plane+ky*wp+kx+j])
						}
					}
				}
				dst[fi*ds+j] = s
			}
		}
	}
}

// FuzzConvSign3x3Parity pins ConvSign3x3's raw outputs — before any
// pooling, batch norm or sign — on every dispatch path to convSignRef
// bit for bit, NaN placement included (payloads free, as sameBits32
// says). The fuzzer picks the geometry (filter and position tails of
// both tiles, widths that tile per row and ones that do not), the split
// of the filter range, the ±1 weights from the bits of signs and the
// whole band's raw float bit patterns, padding included: ±0, denormals,
// ±Inf and any NaN payload are all reachable. A rounding-order or
// weight-pairing error in a tile shows here in the low bits of any
// output, where a check after the sign sees it only at a zero crossing.
func FuzzConvSign3x3Parity(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(4), uint8(16), uint8(2), uint64(0x9e3779b97f4a7c15), []byte("conv-sign-seed-0123456789abcdefghijklmnop"))
	f.Add(uint8(5), uint8(7), uint8(3), uint8(13), uint8(5), uint64(0xffffffff00000000), []byte("\x00\x00\xc0\x7f\x00\x00\x80\xff\x00\x00\x80\x7f\x00\x00\x00\x80\x01\x00\x00\x00"))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, cr, fr, hr, wr, cutr uint8, signs uint64, raw []byte) {
		ch, nf := 1+int(cr)%17, 1+int(fr)%13
		h, w := 1+int(hr)%9, 1+int(wr)%34
		cut := int(cutr) % (nf + 1)
		wp := w + 2
		plane := (h + 2) * wp
		n := ConvSignSpan(h, wp)

		wt := make([]float32, nf*ch*9)
		for i := range wt {
			if i%64 == 0 && i > 0 {
				signs = signs*6364136223846793005 + 1442695040888963407
			}
			wt[i] = float32(int32(signs>>(i%64)&1)*2 - 1)
		}
		src := make([]float32, (ch-1)*plane+2*wp+2+n)
		fuzzFill(src, raw, 0)
		want := make([]float32, nf*n)
		convSignRef(want, n, wt, src, ch, plane, wp, h, nf)

		for _, p := range KernelPaths() {
			got, backing := makeGuarded(nf * n)
			ConvSign3x3(p, got, n, wt, src, ch, plane, wp, h, 0, cut)
			ConvSign3x3(p, got, n, wt, src, ch, plane, wp, h, cut, nf)
			for fi := 0; fi < nf; fi++ {
				for oy := 0; oy < h; oy++ {
					for ox := 0; ox < w; ox++ {
						i := fi*n + oy*wp + ox
						if !sameBits32(got[i], want[i]) {
							t.Fatalf("path=%v ch=%d f=%d %dx%d cut=%d: filter %d (%d,%d) = %08x, reference %08x",
								p, ch, nf, h, w, cut, fi, oy, ox, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
			checkGuard(t, backing, nf*n, "ConvSign3x3 "+p.String())
		}
	})
}
