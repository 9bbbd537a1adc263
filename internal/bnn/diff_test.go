package bnn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// This file is the bnn half of the kernel-dispatch differential
// harness: XnorDot and the fused binarize+pack kernels are pinned
// bit-identical to their naive oracles on every dispatch path, over
// adversarial lengths (empty, single, one-off word and vector-width
// tails, primes) and adversarial float inputs (-0.0, NaN, ±Inf). The
// bit kernels are exact integer arithmetic, so unlike the float GEMMs
// there is no payload caveat: every byte must match.

// diffLens are the adversarial vector lengths: around the byte (8),
// word (64), AVX2 pack group (32) and popcount block (256-bit = 4
// words = 256 elements) boundaries, plus primes.
var diffLens = []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 317, 512, 1024, 1031}

// forEachKernelPath runs fn once per supported dispatch path, forcing
// the path for the duration and restoring the previous one after.
func forEachKernelPath(t *testing.T, fn func(t *testing.T, p tensor.KernelPath)) {
	t.Helper()
	prev := tensor.CurrentKernelPath()
	defer func() {
		if err := tensor.SetKernelPath(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, p := range tensor.KernelPaths() {
		if err := tensor.SetKernelPath(p); err != nil {
			t.Fatalf("SetKernelPath(%v): %v", p, err)
		}
		fn(t, p)
	}
}

// fillSpecials fills dst with sign-ambiguous floats: negatives,
// positives, both zeros, ±Inf and NaN. The pack contract is v >= 0,
// under which -0.0 packs as 1 and NaN packs as 0 — the two cases a
// kernel built on the raw IEEE sign bit gets wrong.
func fillSpecials(dst []float32, rng *rand.Rand) {
	for i := range dst {
		switch rng.Intn(10) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = float32(math.Copysign(0, -1))
		case 2:
			dst[i] = float32(math.Inf(1))
		case 3:
			dst[i] = float32(math.Inf(-1))
		case 4:
			dst[i] = float32(math.NaN())
		default:
			dst[i] = rng.Float32()*2 - 1
		}
	}
}

// packRef is the one-line-per-element reference the kernels are judged
// against, written independently of any of them.
func packRef(v []float32) []byte {
	out := make([]byte, (len(v)+7)/8)
	for i, x := range v {
		if x >= 0 {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// TestPackSignsDiffAllPaths pins PackSigns, PackVector and
// PackSignsSample on every dispatch path to the reference packer, over
// adversarial lengths and -0.0/NaN/±Inf inputs.
func TestPackSignsDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range diffLens {
		v := make([]float32, n)
		fillSpecials(v, rng)
		want := packRef(v)

		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			if n > 0 { // tensor.New rejects empty shapes
				tn := tensor.New(n)
				copy(tn.Data(), v)
				if got := PackSigns(tn); !bytes.Equal(got, want) {
					t.Fatalf("path=%v n=%d: PackSigns = %x, want %x", p, n, got, want)
				}
			}
			pv := PackVector(v)
			if got := pv.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("path=%v n=%d: PackVector bytes = %x, want %x", p, n, got, want)
			}
			if rem := n % 64; rem != 0 && len(pv.Words) > 0 {
				if tail := pv.Words[len(pv.Words)-1] &^ (1<<uint(rem) - 1); tail != 0 {
					t.Fatalf("path=%v n=%d: PackVector tail bits set: %x", p, n, tail)
				}
			}
		})
	}

	// Batched per-sample packing must byte-match whole-vector packing of
	// each row, on every path.
	const batch, dim = 3, 317
	bt := tensor.New(batch, dim)
	fillSpecials(bt.Data(), rng)
	forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
		for i := 0; i < batch; i++ {
			want := packRef(bt.Sample(i))
			if got := PackSignsSample(bt, i); !bytes.Equal(got, want) {
				t.Fatalf("path=%v sample %d: %x, want %x", p, i, got, want)
			}
		}
	})
}

// TestXnorDotDiffAllPaths pins XnorDot on every dispatch path against
// two independent oracles: the byte-wide XnorDotBytes kernel and a
// plain float sum over the ±1 sign values. Lengths cover every tail
// regime of the word and AVX2 popcount kernels.
func TestXnorDotDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range diffLens {
		va := make([]float32, n)
		vb := make([]float32, n)
		wantDot := 0
		for i := 0; i < n; i++ {
			sa := rng.Intn(2)*2 - 1
			sb := rng.Intn(2)*2 - 1
			va[i] = float32(sa)
			vb[i] = float32(sb)
			wantDot += sa * sb
		}

		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			a := PackVector(va)
			b := PackVector(vb)
			got, err := XnorDot(a, b)
			if err != nil {
				t.Fatalf("path=%v n=%d: %v", p, n, err)
			}
			if got != wantDot {
				t.Fatalf("path=%v n=%d: XnorDot = %d, sign-sum oracle %d", p, n, got, wantDot)
			}
			ref, err := XnorDotBytes(n, a.Bytes(), b.Bytes())
			if err != nil {
				t.Fatalf("path=%v n=%d: %v", p, n, err)
			}
			if got != ref {
				t.Fatalf("path=%v n=%d: XnorDot = %d, XnorDotBytes oracle %d", p, n, got, ref)
			}
		})
	}
}

// TestPackedLinearDiffAllPaths runs a deployed layer end to end on
// every path: the pre-activations must be identical, pinning the
// SyncWeights packing, the path-dispatched input pack and the forward
// kernel together.
func TestPackedLinearDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := NewBinaryLinear(rng, "diff", 317, 10)
	x := make([]float32, 317)
	for i := range x {
		x[i] = float32(rng.Intn(2)*2 - 1)
	}

	var want []float32
	forEachKernelPath(t, func(t *testing.T, kp tensor.KernelPath) {
		out := make([]float32, 10)
		if err := l.Packed().ForwardInto(out, PackVector(x).Bytes()); err != nil {
			t.Fatalf("path=%v: %v", kp, err)
		}
		if want == nil {
			want = out
			return
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("path=%v: output %d = %g, first path gave %g", kp, i, out[i], want[i])
			}
		}
	})
}
