package tensor

import (
	"fmt"
	"os"
	"sync/atomic"
)

// KernelPath identifies one implementation tier of the compute kernels:
// the float GEMM and the fused ConvP kernels here, XNOR-popcount
// dot products, sign packing and the XNOR convolution's sweep in package
// bnn. A path picks kernels, never algorithms: every forward runs the
// same algorithm on every path, chosen by its input's type. Every path
// is bit-identical on its documented domain — the paths differ only in
// speed — and the naive kernels are the parity oracles the differential
// tests and fuzz targets pin the optimized kernels against.
type KernelPath int32

const (
	// KernelNaive is the scalar reference path: one accumulator per
	// output element, ascending shared-dimension accumulation, no
	// tiling. Its kernels are the oracles every other path must match
	// bit for bit; where a kernel has no separate naive form (the fused
	// ConvP kernels, the XNOR convolution's sweep) it runs the portable
	// one.
	KernelNaive KernelPath = iota
	// KernelGo is the portable optimized path: register-tiled pure-Go
	// kernels (2x4 float GEMM tiles, 64-bit-word popcount, 8-wide
	// unrolled sign packing).
	KernelGo
	// KernelSIMD is the arch-specific path: AVX2 assembly kernels on
	// amd64 (4x16 GEMM tiles without FMA, PSHUFB nibble popcount,
	// VMOVMSKPS sign packing). Selecting it on hardware without the
	// required features is an error.
	KernelSIMD
)

// String returns the path's DDNN_KERNELS spelling.
func (p KernelPath) String() string {
	switch p {
	case KernelNaive:
		return "naive"
	case KernelGo:
		return "go"
	case KernelSIMD:
		return "simd"
	}
	return fmt.Sprintf("KernelPath(%d)", int32(p))
}

// KernelEnv is the environment variable that forces a dispatch path at
// process start: "naive", "go" or "simd" (empty or "auto" selects the
// best supported path). A forced value the host cannot honour panics at
// init — a chaos run or CI matrix leg that asks for a specific path must
// get exactly that path or die loudly, never silently fall back.
const KernelEnv = "DDNN_KERNELS"

// kernelPath holds the active KernelPath; reads are a single atomic
// load, so the per-call dispatch cost is negligible against any kernel.
var kernelPath atomic.Int32

func init() {
	v := os.Getenv(KernelEnv)
	p, err := parseKernelPath(v)
	if err != nil {
		panic(fmt.Sprintf("tensor: %s=%q: %v", KernelEnv, v, err))
	}
	kernelPath.Store(int32(p))
}

// parseKernelPath maps a DDNN_KERNELS value to a path, validating
// hardware support for "simd".
func parseKernelPath(v string) (KernelPath, error) {
	switch v {
	case "", "auto":
		if hasSIMD() {
			return KernelSIMD, nil
		}
		return KernelGo, nil
	case "naive":
		return KernelNaive, nil
	case "go":
		return KernelGo, nil
	case "simd":
		if !hasSIMD() {
			return 0, fmt.Errorf("simd kernels not supported on this CPU/arch")
		}
		return KernelSIMD, nil
	}
	return 0, fmt.Errorf("unknown kernel path (want naive|go|simd|auto)")
}

// CurrentKernelPath returns the active dispatch path. Kernels read it
// once per call, so a concurrent SetKernelPath never tears a single
// GEMM between two implementations.
func CurrentKernelPath() KernelPath {
	return KernelPath(kernelPath.Load())
}

// SetKernelPath switches the active dispatch path at runtime (tests,
// benchmarks and the CI per-path matrix use it; production processes
// normally set it once via DDNN_KERNELS). It fails if the path is
// unknown or unsupported on this host, leaving the active path
// unchanged.
func SetKernelPath(p KernelPath) error {
	if !KernelPathSupported(p) {
		return fmt.Errorf("tensor: kernel path %v not supported on this CPU/arch", p)
	}
	kernelPath.Store(int32(p))
	return nil
}

// SetKernelPathName is SetKernelPath for a DDNN_KERNELS-style name
// ("naive", "go", "simd", "auto" or empty for the best supported path).
func SetKernelPathName(name string) error {
	p, err := parseKernelPath(name)
	if err != nil {
		return fmt.Errorf("tensor: %v", err)
	}
	kernelPath.Store(int32(p))
	return nil
}

// KernelPathSupported reports whether the host can execute the path.
func KernelPathSupported(p KernelPath) bool {
	switch p {
	case KernelNaive, KernelGo:
		return true
	case KernelSIMD:
		return hasSIMD()
	}
	return false
}

// KernelPaths returns every path the host supports, in naive→go→simd
// order. The differential tests, fuzz targets and the kernels benchmark
// iterate it so a host without AVX2 still exercises the portable paths.
func KernelPaths() []KernelPath {
	paths := []KernelPath{KernelNaive, KernelGo}
	if hasSIMD() {
		paths = append(paths, KernelSIMD)
	}
	return paths
}
