package bnn

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// PackSigns bit-packs the signs of a tensor: bit i is 1 when element i is
// non-negative (+1 after binarization) and 0 otherwise (−1). Eight elements
// share a byte, which is the representation the paper's Eq. (1) assumes
// when charging f·o/8 bytes for a binarized feature upload. The compare
// and pack run as one fused kernel on the active dispatch path.
func PackSigns(t *tensor.Tensor) []byte {
	td := t.Data()
	out := make([]byte, (len(td)+7)/8)
	packSignsInto(out, td)
	return out
}

// UnpackSigns expands a bit-packed sign vector back into a ±1 tensor of the
// given shape.
func UnpackSigns(data []byte, shape ...int) (*tensor.Tensor, error) {
	t := tensor.New(shape...)
	if need := PackedSize(t.Size()); len(data) != need {
		return nil, fmt.Errorf("bnn: packed data is %d bytes, shape %v needs %d", len(data), shape, need)
	}
	return t, UnpackSignsInto(t.Data(), data)
}

// PackedSize returns the number of bytes PackSigns produces for n elements.
func PackedSize(n int) int { return (n + 7) / 8 }

// PackSamplesInto bit-packs every leading-dimension sample of t into dst,
// back to back: the bytes PackSigns would produce for each sample alone,
// each PackedSize(t.SampleSize()) long — each sample of a micro-batch
// starts on its own byte boundary, so batched and per-sample uploads stay
// bit-identical. dst must have exactly that many bytes per sample.
func PackSamplesInto(dst []byte, t *tensor.Tensor) {
	n, stride := t.Dim(0), PackedSize(t.SampleSize())
	if len(dst) != n*stride {
		panic(fmt.Sprintf("bnn: PackSamplesInto: %d bytes for %d samples of %d", len(dst), n, stride))
	}
	clear(dst) // the pack kernels OR bits into a sample's last byte
	for i := 0; i < n; i++ {
		packSignsInto(dst[i*stride:(i+1)*stride], t.Sample(i))
	}
}

// unpackTable[b] is byte b unpacked: element k is +1 when bit k is set
// and −1 otherwise.
var unpackTable = func() (t [256][8]float32) {
	for b := range t {
		for k := range t[b] {
			t[b][k] = float32(b>>k&1)*2 - 1
		}
	}
	return t
}()

// UnpackSignsInto expands a bit-packed sign vector into dst as ±1 values.
// It is the in-place analogue of UnpackSigns, used to fill one sample row
// of a pre-allocated batch tensor. Each byte is one table lookup and one
// 32-byte store, with no branch on the data.
func UnpackSignsInto(dst []float32, data []byte) error {
	if need := (len(dst) + 7) / 8; len(data) != need {
		return fmt.Errorf("bnn: packed data is %d bytes, %d elements need %d", len(data), len(dst), need)
	}
	full := len(dst) / 8
	for i, b := range data[:full] {
		*(*[8]float32)(dst[8*i:]) = unpackTable[b]
	}
	if full < len(data) {
		copy(dst[8*full:], unpackTable[data[full]][:])
	}
	return nil
}
