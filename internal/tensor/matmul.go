package tensor

import "fmt"

// MatMul computes C = A·B for 2-D tensors A [m,k] and B [k,n], returning a
// new [m,n] tensor. It runs the active KernelPath's GEMM and splits large
// products row-wise across the package worker pool; per-element
// accumulation order is identical to the naive ikj kernel (matmulRows),
// so results match it exactly.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := matmulDims(a, b)
	c := New(m, n)
	path := CurrentKernelPath()
	if m >= 8 && m*k*n >= gemmParallelOps && MaxWorkers() > 1 {
		// Row blocks of C are independent, and each element still
		// accumulates its products in ascending shared-dimension order, so
		// splitting changes nothing but wall-clock time.
		ParallelFor(m, 4, func(lo, hi int) {
			gemmRowsPath(path, c.data, a.data, b.data, lo, hi, k, n)
		})
		return c
	}
	gemmRowsPath(path, c.data, a.data, b.data, 0, m, k, n)
	return c
}

// Gemm computes C = A·B over raw row-major slices: A is [m,k], B is [k,n]
// and C is [m,n]. It is the allocation-free entry point used by the
// im2col convolution path, which views samples of larger tensors as
// matrices without wrapping them. Gemm never splits work itself — callers
// like the convolution layer own the parallelism decision. The kernel is
// selected by the active KernelPath; every path accumulates each C
// element in ascending shared-dimension order, so results are
// bit-identical across naive, go and simd.
func Gemm(c, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: Gemm slice sizes %d,%d,%d too small for [%d %d]·[%d %d]", len(c), len(a), len(b), m, k, k, n))
	}
	clear(c[:m*n])
	gemmRowsPath(CurrentKernelPath(), c, a, b, 0, m, k, n)
}

// gemmRowsPath computes C rows [i0,i1) with the kernel of the given
// dispatch path. The path is passed in (read once per public call)
// rather than re-read, so a concurrent SetKernelPath can never split
// one GEMM — or its parallel row blocks — across two implementations.
func gemmRowsPath(path KernelPath, c, a, b []float32, i0, i1, k, n int) {
	switch path {
	case KernelNaive:
		matmulRows(c, a, b, i0, i1, k, n)
	case KernelSIMD:
		gemmSIMD(c, a, b, i0, i1, k, n)
	default:
		matmulBlocked(c, a, b, i0, i1, k, n)
	}
}

// GemmSign is Gemm. It survives only for the serving benchmark's
// tensor.gemm_sign_us probe, whose A must still be ±1 (binarized
// weights); ROADMAP item B1 deletes it with that probe.
func GemmSign(c, a, b []float32, m, k, n int) { Gemm(c, a, b, m, k, n) }

func matmulDims(a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	if a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v · %v", a.shape, b.shape))
	}
	return a.shape[0], a.shape[1], b.shape[1]
}

// gemmParallelOps is the m·k·n product above which a single matmul is
// split row-wise across the worker pool. Below it the goroutine handoff
// costs more than the multiply.
const gemmParallelOps = 1 << 18

// matmulBlocked processes C rows [i0,i1) with a 2×4 register-tiled
// micro-kernel: a 2-row × 4-column tile of C lives in registers for the
// whole shared-dimension sweep, so the inner loop does 8 multiply-adds
// per 6 loads and no stores. (Larger tiles need more accumulators than
// the scalar register file holds; 2×4 measured fastest.) Matrices with
// at most 4 columns — the class-logit exit heads — skip the tiling and
// accumulate whole rows in registers instead. Every C element still
// accumulates its products in ascending p order — exactly the naive
// kernel's order — so results are identical.
func matmulBlocked(c, a, b []float32, i0, i1, k, n int) {
	if n <= 4 {
		matmulSmallN(c, a, b, i0, i1, k, n)
		return
	}
	i := i0
	for ; i+2 <= i1; i += 2 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		c0 := c[(i+0)*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			s00, s01, s02, s03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
			s10, s11, s12, s13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
			bi := j
			for p := 0; p < k; p++ {
				bp := b[bi : bi+4 : bi+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				av := a0[p]
				s00 += av * b0
				s01 += av * b1
				s02 += av * b2
				s03 += av * b3
				av = a1[p]
				s10 += av * b0
				s11 += av * b1
				s12 += av * b2
				s13 += av * b3
				bi += n
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			s0, s1 := c0[j], c1[j]
			bi := j
			for p := 0; p < k; p++ {
				bv := b[bi]
				s0 += a0[p] * bv
				s1 += a1[p] * bv
				bi += n
			}
			c0[j], c1[j] = s0, s1
		}
	}
	matmulRows(c, a, b, i, i1, k, n)
}

// matmulSmallN handles n ≤ 4 output columns (class-logit heads): each C
// row fits in registers, so one sweep of an A row does all columns with
// no C traffic. Accumulation order per element is p ascending, as
// everywhere else.
func matmulSmallN(c, a, b []float32, i0, i1, k, n int) {
	if n == 0 {
		return
	}
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		switch n {
		case 1:
			s0 := crow[0]
			for p, av := range arow {
				s0 += av * b[p]
			}
			crow[0] = s0
		case 2:
			s0, s1 := crow[0], crow[1]
			for p, av := range arow {
				s0 += av * b[2*p]
				s1 += av * b[2*p+1]
			}
			crow[0], crow[1] = s0, s1
		case 3:
			s0, s1, s2 := crow[0], crow[1], crow[2]
			for p, av := range arow {
				bp := b[3*p : 3*p+3 : 3*p+3]
				s0 += av * bp[0]
				s1 += av * bp[1]
				s2 += av * bp[2]
			}
			crow[0], crow[1], crow[2] = s0, s1, s2
		default:
			s0, s1, s2, s3 := crow[0], crow[1], crow[2], crow[3]
			for p, av := range arow {
				bp := b[4*p : 4*p+4 : 4*p+4]
				s0 += av * bp[0]
				s1 += av * bp[1]
				s2 += av * bp[2]
				s3 += av * bp[3]
			}
			crow[0], crow[1], crow[2], crow[3] = s0, s1, s2, s3
		}
	}
}

// matmulRows is the 1-row ikj kernel over C rows [i0,i1): the naive
// reference layout, also used for the tail rows of the blocked and SIMD
// kernels. It deliberately never skips zero A elements — 0·Inf and
// 0·NaN are NaN, so a zero-skip would make the oracle diverge from the
// tiled kernels exactly on the adversarial inputs the differential
// harness feeds them.
func matmulRows(c, a, b []float32, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for p, av := range arow {
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulTransB computes C = A·Bᵀ for A [m,k] and B [n,k], returning [m,n].
// This layout (dot products of rows) is used for the backward pass of
// linear layers.
func MatMulTransB(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulTransB requires 2-D tensors")
	}
	if a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v · %vᵀ", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		crow := c.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
	return c
}

// MatMulTransA computes C = Aᵀ·B for A [k,m] and B [k,n], returning [m,n].
// Used to accumulate weight gradients (xᵀ·dy).
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulTransA requires 2-D tensors")
	}
	if a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %vᵀ · %v", a.shape, b.shape))
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	c := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c.data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}
