package tensor

import (
	"math/rand"
	"testing"
)

// fillRandom fills a tensor with uniform values, including exact zeros
// occasionally so the kernels' zero-handling paths are exercised.
func fillRandom(t *Tensor, rng *rand.Rand) {
	d := t.Data()
	for i := range d {
		switch rng.Intn(10) {
		case 0:
			d[i] = 0
		default:
			d[i] = rng.Float32()*2 - 1
		}
	}
}

// TestMatMulBlockedMatchesNaive checks the register-tiled kernel against
// the naive ikj reference on randomized shapes, including row/column
// tails and the small-n specialization. Accumulation order is identical
// by construction, so results must be exactly equal.
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(17)
		k := 1 + rng.Intn(40)
		n := 1 + rng.Intn(21)
		a := New(m, k)
		b := New(k, n)
		fillRandom(a, rng)
		fillRandom(b, rng)
		want := MatMulNaive(a, b)
		got := MatMul(a, b)
		for i, w := range want.Data() {
			if got.Data()[i] != w {
				t.Fatalf("m=%d k=%d n=%d: element %d = %g, naive %g", m, k, n, i, got.Data()[i], w)
			}
		}
	}
}

// TestGemmSignMatchesGemm checks that GemmSign, kept for ±1 A
// matrices, gives exactly Gemm's result.
func TestGemmSignMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(13)
		k := 1 + rng.Intn(40)
		n := 1 + rng.Intn(30)
		a := make([]float32, m*k)
		for i := range a {
			a[i] = float32(rng.Intn(2)*2 - 1)
		}
		b := make([]float32, k*n)
		for i := range b {
			b[i] = rng.Float32()*2 - 1
		}
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		Gemm(want, a, b, m, k, n)
		GemmSign(got, a, b, m, k, n)
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("m=%d k=%d n=%d: element %d = %g, Gemm %g", m, k, n, i, got[i], w)
			}
		}
	}
}

// TestMatMulParallelMatchesSerial pins the worker bound high and low:
// row-split execution must produce exactly the serial result.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := New(64, 80)
	b := New(80, 96)
	fillRandom(a, rng)
	fillRandom(b, rng)

	SetMaxWorkers(1)
	serial := MatMul(a, b)
	SetMaxWorkers(8)
	parallel := MatMul(a, b)
	SetMaxWorkers(0)

	for i, w := range serial.Data() {
		if parallel.Data()[i] != w {
			t.Fatalf("element %d = %g parallel, %g serial", i, parallel.Data()[i], w)
		}
	}
}

// im2colReference gathers the matrix element by element straight from
// the definition: row (ci·K+ky)·K+kx, column oy·ow+ox holds
// x[s, ci, oy·stride+ky−pad, ox·stride+kx−pad], zero outside the input.
func im2colReference(x *Tensor, sample, kernel, stride, pad int) *Tensor {
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	out := New(c*kernel*kernel, oh*ow)
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < kernel; ky++ {
			for kx := 0; kx < kernel; kx++ {
				row := (ci*kernel+ky)*kernel + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy := oy*stride + ky - pad
						ix := ox*stride + kx - pad
						var v float32
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = x.At(sample, ci, iy, ix)
						}
						out.Set(v, row, oy*ow+ox)
					}
				}
			}
		}
	}
	return out
}

// TestIm2colMatchesReference sweeps kernel/stride/pad combinations,
// non-square spatial dims and multi-sample tensors against the direct
// gather.
func TestIm2colMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 120; trial++ {
		kernel := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(3)
		c := 1 + rng.Intn(4)
		h := kernel + rng.Intn(9)
		w := kernel + rng.Intn(9)
		ns := 1 + rng.Intn(3)
		x := New(ns, c, h, w)
		fillRandom(x, rng)
		sample := rng.Intn(ns)

		want := im2colReference(x, sample, kernel, stride, pad)
		if rows, cols := Im2colShape(x, kernel, stride, pad); rows != want.Dim(0) || cols != want.Dim(1) {
			t.Fatalf("k=%d s=%d p=%d: shape [%d %d], want %v", kernel, stride, pad, rows, cols, want.Shape())
		}
		// Im2colInto must leave a dirty buffer fully correct.
		got := make([]float32, want.Size())
		for i := range got {
			got[i] = 999
		}
		Im2colInto(got, x, sample, kernel, stride, pad)
		for i, wv := range want.Data() {
			if got[i] != wv {
				t.Fatalf("k=%d s=%d p=%d h=%d w=%d: element %d = %g, want %g", kernel, stride, pad, h, w, i, got[i], wv)
			}
		}
	}
}

// MatMulNaive is the reference ikj kernel: one row of A at a time, B
// streamed per shared-dimension step — the ground truth for the blocked
// kernel's parity tests and benchmarks.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k, n := matmulDims(a, b)
	c := New(m, n)
	matmulRows(c.data, a.data, b.data, 0, m, k, n)
	return c
}

// BenchmarkMatMulNaive is the reference ikj kernel on the shapes of the
// root package's BenchmarkMatMul; the ratio is the register-tiling
// speedup.
func BenchmarkMatMulNaive(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	x := New(32, 256)
	w := New(256, 64)
	x.FillUniform(rng, -1, 1)
	w.FillUniform(rng, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulNaive(x, w)
	}
}
