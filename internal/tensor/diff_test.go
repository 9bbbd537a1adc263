package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the differential-testing harness that makes the kernel
// dispatch layer safe to grow: every optimized GEMM path (go, simd) is
// pinned bit-identical to the naive scalar oracle on randomized and
// adversarial shapes — dimensions of 0, 1, one-off-vector-width tails
// and primes — and on NaN/Inf inputs. Hand-written assembly only ships
// behind these tests.

// canonNaN32 is the canonical quiet float32 NaN. The harness injects
// only this NaN bit pattern: when two NaN operands meet in a multiply,
// IEEE implementations may return either one, so distinct payloads
// would make results depend on operand order rather than on kernel
// correctness.
var canonNaN32 = math.Float32frombits(0x7FC00000)

// sameBits32 is the harness equality: exact bit patterns, except that
// any NaN matches any NaN. NaN placement is fully pinned — a kernel
// may not turn a NaN into a number or vice versa — but payloads are
// not: when an already-NaN accumulator absorbs a NaN product, x86
// addition returns the first source operand's payload, and the Go
// compiler is free to emit either operand order (the memory-operand
// ADDSS in matmulRows and the register accumulators in the tiled
// kernels genuinely pick opposite ones). IEEE 754 and the Go spec both
// leave this unspecified, so pinning payloads would test the compiler's
// instruction selection, not the kernels.
func sameBits32(got, want float32) bool {
	if math.Float32bits(got) == math.Float32bits(want) {
		return true
	}
	return math.IsNaN(float64(got)) && math.IsNaN(float64(want))
}

// diffDims are the adversarial dimension values the harness draws m, k
// and n from: empty, single, register-tile widths and their one-off
// tails (the 2x4/4x4 scalar tiles and the 4x16 AVX2 tile), and primes
// that never align with any unrolling.
var diffDims = []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 15, 16, 17, 23, 31, 32, 33, 47, 48, 64, 67}

// forEachKernelPath runs fn once per supported dispatch path, forcing
// the path for the duration and restoring the previous one after.
func forEachKernelPath(t *testing.T, fn func(t *testing.T, p KernelPath)) {
	t.Helper()
	prev := CurrentKernelPath()
	defer func() {
		if err := SetKernelPath(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, p := range KernelPaths() {
		if err := SetKernelPath(p); err != nil {
			t.Fatalf("SetKernelPath(%v): %v", p, err)
		}
		fn(t, p)
	}
}

// fillDiff fills dst with a mix of finite values, exact zeros and — when
// specials is true — ±Inf and the canonical NaN.
func fillDiff(dst []float32, rng *rand.Rand, specials bool) {
	for i := range dst {
		switch r := rng.Intn(20); {
		case r == 0:
			dst[i] = 0
		case specials && r == 1:
			dst[i] = float32(math.Inf(1))
		case specials && r == 2:
			dst[i] = float32(math.Inf(-1))
		case specials && r == 3:
			dst[i] = canonNaN32
		default:
			dst[i] = rng.Float32()*2 - 1
		}
	}
}

// guardLen pads destination buffers so out-of-bounds assembly stores
// land on sentinels instead of silently corrupting the heap.
const guardLen = 64

// makeGuarded returns a length-n slice backed by n+guardLen floats
// whose tail is filled with the sentinel, plus the full backing array
// for the guard check.
func makeGuarded(n int) (c, backing []float32) {
	backing = make([]float32, n+guardLen)
	for i := n; i < len(backing); i++ {
		backing[i] = 12345678
	}
	return backing[:n:n], backing
}

func checkGuard(t *testing.T, backing []float32, n int, what string) {
	t.Helper()
	for i := n; i < len(backing); i++ {
		if backing[i] != 12345678 {
			t.Fatalf("%s: wrote past the destination at offset %d", what, i-n)
		}
	}
}

// diffDim draws one dimension: usually from the adversarial set, with
// an occasional uniform draw to cover everything in between.
func diffDim(rng *rand.Rand) int {
	if rng.Intn(4) == 0 {
		return rng.Intn(70)
	}
	return diffDims[rng.Intn(len(diffDims))]
}

// TestGemmDiffAllPaths pins every Gemm dispatch path to the naive ikj
// oracle on randomized adversarial shapes with NaN/Inf inputs, bit-
// exact under sameBits32. NaNs go into A or B, never both in one
// trial: a NaN·NaN product's result payload is operand-order-dependent
// even between two correct scalar kernels.
func TestGemmDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		m, k, n := diffDim(rng), diffDim(rng), diffDim(rng)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillDiff(a, rng, trial%2 == 0)
		fillDiff(b, rng, trial%2 == 1)

		want := make([]float32, m*n)
		matmulRows(want, a, b, 0, m, k, n)

		forEachKernelPath(t, func(t *testing.T, p KernelPath) {
			got, backing := makeGuarded(m * n)
			Gemm(got, a, b, m, k, n)
			for i, w := range want {
				if !sameBits32(got[i], w) {
					t.Fatalf("path=%v m=%d k=%d n=%d: element %d = %g (%08x), oracle %g (%08x)",
						p, m, k, n, i, got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
				}
			}
			checkGuard(t, backing, m*n, "Gemm "+p.String())
		})
	}
}

// TestGemmSignDiffAllPaths pins GemmSign on every dispatch path to the
// naive row oracle for ±1 A matrices, with zeros and ±Inf in B, writing
// into a guard-padded destination.
func TestGemmSignDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		m, k, n := diffDim(rng), diffDim(rng), diffDim(rng)
		a := make([]float32, m*k)
		for i := range a {
			a[i] = float32(rng.Intn(2)*2 - 1)
		}
		b := make([]float32, k*n)
		for i := range b {
			switch rng.Intn(20) {
			case 0:
				b[i] = 0
			case 1:
				b[i] = float32(math.Inf(1))
			case 2:
				b[i] = float32(math.Inf(-1))
			default:
				b[i] = rng.Float32()*2 - 1
			}
		}

		want := make([]float32, m*n)
		matmulRows(want, a, b, 0, m, k, n)

		forEachKernelPath(t, func(t *testing.T, p KernelPath) {
			got, backing := makeGuarded(m * n)
			GemmSign(got, a, b, m, k, n)
			for i, w := range want {
				if !sameBits32(got[i], w) {
					t.Fatalf("path=%v m=%d k=%d n=%d: element %d = %g (%08x), oracle %g (%08x)",
						p, m, k, n, i, got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
				}
			}
			checkGuard(t, backing, m*n, "GemmSign "+p.String())
		})
	}
}

// TestGemmParallelDiffAllPaths forces worker-pool row splitting above
// gemmParallelOps on every path and compares against the serial naive
// oracle — a dispatch bug in the ParallelFor row blocks cannot hide
// behind the serial case.
func TestGemmParallelDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := New(67, 129)
	b := New(129, 47)
	fillDiff(a.Data(), rng, true)
	fillDiff(b.Data(), rng, false)

	want := New(67, 47)
	matmulRows(want.Data(), a.Data(), b.Data(), 0, 67, 129, 47)

	defer SetMaxWorkers(0)
	forEachKernelPath(t, func(t *testing.T, p KernelPath) {
		SetMaxWorkers(8)
		got := MatMul(a, b)
		for i, w := range want.Data() {
			if !sameBits32(got.Data()[i], w) {
				t.Fatalf("path=%v parallel: element %d = %g, oracle %g", p, i, got.Data()[i], w)
			}
		}
	})
}

// TestKernelPathSelection pins the dispatch plumbing itself: name
// parsing, rejection of unknown paths, support reporting and the
// naive→go→simd ordering of KernelPaths.
func TestKernelPathSelection(t *testing.T) {
	prev := CurrentKernelPath()
	defer SetKernelPath(prev)
	setName := func(name string) error {
		p, err := parseKernelPath(name)
		if err != nil {
			return err
		}
		return SetKernelPath(p)
	}

	if err := setName("naive"); err != nil || CurrentKernelPath() != KernelNaive {
		t.Fatalf("naive: err=%v path=%v", err, CurrentKernelPath())
	}
	if err := setName("go"); err != nil || CurrentKernelPath() != KernelGo {
		t.Fatalf("go: err=%v path=%v", err, CurrentKernelPath())
	}
	if err := setName("bogus"); err == nil {
		t.Fatal("accepted unknown kernel path name")
	}
	if CurrentKernelPath() != KernelGo {
		t.Fatal("a rejected name changed the active path")
	}
	if err := SetKernelPath(KernelPath(42)); err == nil {
		t.Fatal("accepted out-of-range kernel path")
	}
	if err := setName("auto"); err != nil {
		t.Fatalf("auto: %v", err)
	}
	best := KernelGo
	if KernelPathSupported(KernelSIMD) {
		best = KernelSIMD
	}
	if CurrentKernelPath() != best {
		t.Fatalf("auto selected %v, want %v", CurrentKernelPath(), best)
	}

	paths := KernelPaths()
	if len(paths) < 2 || paths[0] != KernelNaive || paths[1] != KernelGo {
		t.Fatalf("KernelPaths = %v", paths)
	}
	for _, p := range paths {
		if !KernelPathSupported(p) {
			t.Fatalf("KernelPaths lists unsupported %v", p)
		}
		if p.String() == "" {
			t.Fatalf("empty name for %d", p)
		}
	}
	if !KernelPathSupported(KernelSIMD) && len(paths) != 2 {
		t.Fatalf("simd unsupported but listed: %v", paths)
	}
}
