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
