package bnn

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file implements the eBNN-style deployed inference kernel: once a
// layer's weights are binarized and bit-packed, a ±1 dot product reduces to
// XNOR + popcount — for sign vectors x, w of length n,
//
//	Σᵢ xᵢ·wᵢ = n − 2·popcount(xor(bits(x), bits(w))),
//
// which is how the <2 KB device sections execute on real microcontrollers
// without any floating-point multiplies. The vectors are stored in 64-bit
// words so one XNOR+popcount covers 64 weights; the byte-level PackSigns
// wire format is unchanged (word w holds bytes 8w..8w+7, little-endian),
// so Bytes/PackedVectorFromBytes round-trip without bit shuffling. The
// float training path (BinaryLinear) and this packed path are verified
// against each other in the tests, as are the word-wide kernels against
// the tests' byte-wide reference (XnorDotBytes). The serving exit heads run on
// PackedLinear, whose columns BinaryLinear.SyncWeights keeps current.

// PackedVector is a bit-packed ±1 vector in 64-bit lanes: bit i (counting
// little-endian within and across words) is set when element i is +1.
// Bits past N in the last word are zero.
type PackedVector struct {
	N     int
	Words []uint64
}

// packedWords returns the number of 64-bit words holding n elements.
func packedWords(n int) int { return (n + 63) / 64 }

// PackVector packs the signs of a float vector (non-negative = +1)
// with the fused binarize+pack kernel of the active dispatch path.
func PackVector(v []float32) PackedVector {
	p := PackedVector{N: len(v), Words: make([]uint64, packedWords(len(v)))}
	packWords(p.Words, v)
	return p
}

// PackedVectorFromBytes reassembles a packed vector from its PackSigns
// byte form (the wire representation). Bits past n in the last byte are
// masked off.
func PackedVectorFromBytes(n int, data []byte) (PackedVector, error) {
	if need := PackedSize(n); len(data) != need {
		return PackedVector{}, fmt.Errorf("bnn: packed data is %d bytes, %d elements need %d", len(data), n, need)
	}
	p := PackedVector{N: n, Words: make([]uint64, packedWords(n))}
	for i, b := range data {
		p.Words[i/8] |= uint64(b) << uint(8*(i%8))
	}
	if rem := n % 64; rem != 0 && len(p.Words) > 0 {
		p.Words[len(p.Words)-1] &= 1<<uint(rem) - 1
	}
	return p, nil
}

// Bytes returns the vector in PackSigns byte form ((N+7)/8 bytes,
// little-endian within each byte), the representation the wire codec and
// the Eq. (1) cost model use.
func (p PackedVector) Bytes() []byte {
	out := make([]byte, PackedSize(p.N))
	for i := range out {
		out[i] = byte(p.Words[i/8] >> uint(8*(i%8)))
	}
	return out
}

// XnorDot computes the ±1 dot product of two packed vectors of equal
// length with XNOR and popcount over the 64-bit words, dispatched on
// the active kernel path: byte-wide popcounts (naive oracle), one
// 64-bit popcount per word (go), or the AVX2 nibble-lookup popcount
// (simd). All paths are exact integer arithmetic and return identical
// results.
func XnorDot(a, b PackedVector) (int, error) {
	if a.N != b.N {
		return 0, fmt.Errorf("bnn: XnorDot length mismatch %d vs %d", a.N, b.N)
	}
	if len(a.Words) != len(b.Words) {
		return 0, fmt.Errorf("bnn: XnorDot packed size mismatch %d vs %d", len(a.Words), len(b.Words))
	}
	full := a.N / 64
	hamming := xnorHamming(a.Words[:full], b.Words[:full])
	if rem := a.N % 64; rem != 0 {
		mask := uint64(1)<<uint(rem) - 1
		hamming += bits.OnesCount64((a.Words[full] ^ b.Words[full]) & mask)
	}
	return a.N - 2*hamming, nil
}

// PackedLinear is the deployed form of a BinaryLinear layer: weights
// stored 1 bit each and evaluated with XNOR-popcount. Output j's column is
// the words w[j·words : (j+1)·words], bit i set when weight (i, j) is +1
// and zero past In. BinaryLinear.SyncWeights rewrites it together with
// the float weights, so the two forms never disagree.
type PackedLinear struct {
	In, Out int
	words   int // 64-bit words per column
	w       []uint64
}

// pack rewrites the columns from ±1 weights [in, out], reusing the
// storage when the shape is unchanged.
func (p *PackedLinear) pack(w []float32, in, out int) {
	p.In, p.Out, p.words = in, out, packedWords(in)
	if len(p.w) != p.words*out {
		p.w = make([]uint64, p.words*out)
	} else {
		clear(p.w)
	}
	for i := 0; i < in; i++ {
		for j, v := range w[i*out : (i+1)*out] {
			if v > 0 {
				p.w[j*p.words+i/64] |= 1 << uint(i%64)
			}
		}
	}
}

// ForwardInto evaluates the layer on one ±1 input in PackSigns byte form
// (PackedSize(In) bytes) and writes output j's In − 2·popcount(x ⊕ wⱼ) to
// dst[j]: exactly the float layer's x·sign(W) for that input, since every
// term is ±1 and the sums are small integers. Bits past In in the last
// input byte are ignored.
func (p *PackedLinear) ForwardInto(dst []float32, x []byte) error {
	if need := PackedSize(p.In); len(x) != need {
		return fmt.Errorf("bnn: PackedLinear input is %d bytes, %d inputs need %d", len(x), p.In, need)
	}
	if len(dst) != p.Out {
		return fmt.Errorf("bnn: PackedLinear output length %d, want %d", len(dst), p.Out)
	}
	full := p.In / 64
	var tail uint64
	if rem := p.In % 64; rem != 0 {
		for k, b := range x[8*full:] {
			tail |= uint64(b) << uint(8*k)
		}
		tail &= 1<<uint(rem) - 1
	}
	for j := range dst {
		col := p.w[j*p.words : (j+1)*p.words]
		h := 0
		for wi, cw := range col[:full] {
			h += bits.OnesCount64(binary.LittleEndian.Uint64(x[8*wi:]) ^ cw)
		}
		if full < p.words {
			h += bits.OnesCount64(tail ^ col[full])
		}
		dst[j] = float32(p.In - 2*h)
	}
	return nil
}
