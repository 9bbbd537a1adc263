package core

import "github.com/ddnn/ddnn-go/internal/tensor"

// KernelPath reports the name of the active compute-kernel dispatch
// path ("naive", "go" or "simd") every section forward runs on. It is
// selected at startup — best supported path by default, forced via the
// DDNN_KERNELS environment variable — and surfaced here so serving
// binaries can log what the process actually executes. It picks
// kernels only: a section runs the same algorithms on every path.
func KernelPath() string { return tensor.CurrentKernelPath().String() }
