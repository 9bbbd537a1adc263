package tensor

// cpuid executes the CPUID instruction for the given leaf/subleaf
// (implemented in cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (implemented in
// cpu_amd64.s). Only meaningful after CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// simdAvailable caches the one-time AVX2 capability probe.
var simdAvailable = detectAVX2()

// detectAVX2 reports whether both the CPU and the OS support AVX2, the
// instruction set of the amd64 kernels: CPUID leaf 1 must advertise AVX
// and OSXSAVE, XCR0 must show the OS saving XMM+YMM state, and CPUID
// leaf 7 EBX bit 5 must advertise AVX2 itself. This is the same probe
// golang.org/x/sys/cpu performs; it is inlined here because the repo
// carries no external dependencies.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) mean the OS context-switches YMM
	// registers; without them AVX instructions fault.
	if eax, _ := xgetbv(); eax&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// hasSIMD reports whether the KernelSIMD path can run on this host.
func hasSIMD() bool { return simdAvailable }
