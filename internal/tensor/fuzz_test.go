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

// poolThresholdRef is PoolThresholdRows written out from its contract
// with nothing shared with the kernels: output i of pooled row j scans
// the three values from j·step+2i of each row, r0 then r1 then r2, from
// −Inf, takes a value only when it compares greater, and sets bit
// j·k+i when s·m ≥ t.
func poolThresholdRef(rows [3][]float32, step, p, k int, s, t float32) uint64 {
	var out uint64
	for j := 0; j < p; j++ {
		for i := 0; i < k; i++ {
			m := float32(math.Inf(-1))
			for _, r := range rows {
				for _, v := range r[j*step+2*i : j*step+2*i+3] {
					if v > m {
						m = v
					}
				}
			}
			if s*m >= t {
				out |= 1 << uint(j*k+i)
			}
		}
	}
	return out
}

// FuzzPoolThresholdRowsParity pins PoolThresholdRows on every dispatch
// path to poolThresholdRef bit for bit. The fuzzer picks the pooled rows
// p and their width k (every p·k ≤ 64, so the simd path's groups of
// eight, its trailing four and the scalar widths it leaves to the
// portable kernel), the row step, whether the third window row repeats
// the second (a window clipped at the image's bottom), the raw bits of
// s and t, and the rows' raw float bit patterns: ±0, denormals, ±Inf
// and any NaN payload in the rows, s or t are all reachable. The rows
// are exactly as long as the bound check allows and are followed by
// +Inf, so a kernel that reads past them sets bits the reference does
// not.
func FuzzPoolThresholdRowsParity(f *testing.F) {
	f.Add(uint8(0), uint8(63), uint8(130), uint8(0), uint32(0x3f800000), uint32(0x40000000), []byte("pool-threshold-seed-0123456789abcdefghijklmnop"))
	f.Add(uint8(3), uint8(7), uint8(34), uint8(1), uint32(0xbf800000), uint32(0x7fc00000), []byte("\x00\x00\xc0\x7f\x00\x00\x80\xff\x00\x00\x80\x7f\x00\x00\x00\x80\x01\x00\x00\x00"))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint32(0), uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, pr, kr, stepr, dup uint8, sb, tb uint32, raw []byte) {
		p := 1 + int(pr)%16
		k := 1 + int(kr)%(64/p)
		step := int(stepr) % (2*k + 40)
		s, th := math.Float32frombits(sb), math.Float32frombits(tb)
		need := (p-1)*step + 2*k + 1

		var rows [3][]float32
		for r := range rows {
			backing := make([]float32, need+16)
			fuzzFill(backing[:need], raw, r*need)
			for i := need; i < len(backing); i++ {
				backing[i] = float32(math.Inf(1))
			}
			rows[r] = backing[:need:need]
		}
		if dup%2 == 1 {
			rows[2] = rows[1]
		}
		want := poolThresholdRef(rows, step, p, k, s, th)

		for _, path := range KernelPaths() {
			got := PoolThresholdRows(path, rows[0], rows[1], rows[2], step, p, k, s, th)
			if got != want {
				t.Fatalf("path=%v p=%d k=%d step=%d s=%08x t=%08x: bits %064b, reference %064b", path, p, k, step, sb, tb, got, want)
			}
		}
	})
}
