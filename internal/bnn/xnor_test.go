package bnn

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

func TestXnorDotKnownValues(t *testing.T) {
	tests := []struct {
		name string
		a, b []float32
		want int
	}{
		{"identical", []float32{1, 1, -1, -1}, []float32{1, 1, -1, -1}, 4},
		{"opposite", []float32{1, 1, 1, 1}, []float32{-1, -1, -1, -1}, -4},
		{"half", []float32{1, -1, 1, -1}, []float32{1, 1, 1, 1}, 0},
		{"odd length", []float32{1, -1, 1}, []float32{1, 1, 1}, 1},
		{"nine elements", []float32{1, 1, 1, 1, 1, 1, 1, 1, -1}, []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := XnorDot(PackVector(tt.a), PackVector(tt.b))
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("XnorDot = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestXnorDotMatchesFloatDotProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(nRaw uint8) bool {
		n := int(nRaw%40) + 1
		a := make([]float32, n)
		b := make([]float32, n)
		var want int
		for i := range a {
			a[i] = float32(rng.Intn(2)*2 - 1)
			b[i] = float32(rng.Intn(2)*2 - 1)
			want += int(a[i] * b[i])
		}
		got, err := XnorDot(PackVector(a), PackVector(b))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestXnorDotWordMatchesByte checks the 64-bit-lane kernel against the
// byte-wide reference on randomized lengths, deliberately covering
// non-multiples of 64 and 8, exact word boundaries, and their
// neighbours.
func TestXnorDotWordMatchesByte(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 200}
	for i := 0; i < 60; i++ {
		lengths = append(lengths, 1+rng.Intn(300))
	}
	for _, n := range lengths {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.Intn(2)*2 - 1)
			b[i] = float32(rng.Intn(2)*2 - 1)
		}
		pa, pb := PackVector(a), PackVector(b)
		word, err := XnorDot(pa, pb)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		byteWide, err := XnorDotBytes(n, pa.Bytes(), pb.Bytes())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if word != byteWide {
			t.Errorf("n=%d: word kernel %d, byte kernel %d", n, word, byteWide)
		}
	}
}

// TestPackedVectorBytesRoundTrip checks that the word representation
// stays byte-compatible with the PackSigns wire form.
func TestPackedVectorBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 8, 9, 64, 65, 100, 128, 200} {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.Intn(2)*2 - 1)
		}
		p := PackVector(v)
		wire := PackSigns(tensor.FromSlice(append([]float32(nil), v...), n))
		got := p.Bytes()
		if len(got) != len(wire) {
			t.Fatalf("n=%d: %d bytes, PackSigns gives %d", n, len(got), len(wire))
		}
		for i := range wire {
			if got[i] != wire[i] {
				t.Fatalf("n=%d: byte %d = %02x, PackSigns %02x", n, i, got[i], wire[i])
			}
		}
		back, err := PackedVectorFromBytes(n, wire)
		if err != nil {
			t.Fatal(err)
		}
		if back.N != p.N || len(back.Words) != len(p.Words) {
			t.Fatalf("n=%d: round-trip size mismatch", n)
		}
		for i := range p.Words {
			if back.Words[i] != p.Words[i] {
				t.Fatalf("n=%d: word %d = %x, want %x", n, i, back.Words[i], p.Words[i])
			}
		}
	}
}

// TestPackedVectorFromBytesMasksTail checks that garbage bits past N in
// the last wire byte do not affect dot products.
func TestPackedVectorFromBytesMasksTail(t *testing.T) {
	n := 13
	clean := make([]byte, PackedSize(n))
	clean[0], clean[1] = 0xAB, 0x1F&0x1F
	dirty := append([]byte(nil), clean...)
	dirty[1] |= 0xE0 // bits 13..15 are past N
	pc, err := PackedVectorFromBytes(n, clean)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := PackedVectorFromBytes(n, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Words[0] != pd.Words[0] {
		t.Fatalf("tail bits leaked: %x vs %x", pc.Words[0], pd.Words[0])
	}
}

func TestPackedLinearForwardInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, in := range []int{5, 64, 100, 129} {
		l := NewBinaryLinear(rng, "bl", in, 7)
		p := l.Packed()
		x := tensor.New(1, in)
		for i := range x.Data() {
			x.Data()[i] = float32(rng.Intn(2)*2 - 1)
		}
		want := l.Forward(x, false)
		bits := PackVector(x.Row(0)).Bytes()
		dst := make([]float32, 7)
		if err := p.ForwardInto(dst, bits); err != nil {
			t.Fatal(err)
		}
		for j, got := range dst {
			if got != want.At(0, j) {
				t.Errorf("in=%d output %d: packed %g vs float %g", in, j, got, want.At(0, j))
			}
		}
		// Garbage past In in the last byte must not count.
		if in%8 != 0 {
			bits[len(bits)-1] |= 0xff << uint(in%8)
			if err := p.ForwardInto(dst, bits); err != nil {
				t.Fatal(err)
			}
			for j, got := range dst {
				if got != want.At(0, j) {
					t.Errorf("in=%d output %d with tail garbage: %g vs %g", in, j, got, want.At(0, j))
				}
			}
		}
		if err := p.ForwardInto(make([]float32, 6), bits); err == nil {
			t.Error("accepted wrong output width")
		}
		if err := p.ForwardInto(dst, make([]byte, PackedSize(in)+1)); err == nil {
			t.Error("accepted wrong input width")
		}
	}
}

func TestXnorDotRejectsMismatch(t *testing.T) {
	if _, err := XnorDot(PackVector([]float32{1}), PackVector([]float32{1, 1})); err == nil {
		t.Error("accepted mismatched lengths")
	}
}

func TestPackedLinearMatchesFloatPath(t *testing.T) {
	// The deployed XNOR-popcount layer must agree exactly with the float
	// training path x·sign(W) for sign inputs.
	rng := rand.New(rand.NewSource(2))
	l := NewBinaryLinear(rng, "bl", 37, 5) // odd width exercises tail bits

	x := tensor.New(1, 37)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.Intn(2)*2 - 1)
	}
	want := l.Forward(x, false)

	got := make([]float32, 5)
	if err := l.Packed().ForwardInto(got, PackVector(x.Row(0)).Bytes()); err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if got[j] != want.At(0, j) {
			t.Errorf("output %d: packed %g vs float %g", j, got[j], want.At(0, j))
		}
	}
}

func TestPackedLinearMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewBinaryLinear(rng, "bl", 1024, 3).Packed()
	// 1024 bits = 128 B per output column.
	if got := 8 * len(p.w); got != 3*128 {
		t.Errorf("packed weights take %d B, want 384", got)
	}
	// The float representation would need 4 B per weight: 32× more.
	if 4*1024*3 < 30*8*len(p.w) {
		t.Error("packed representation not ≈32× smaller")
	}
}

func TestPackedWeightsMatchSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const in, out = 70, 3 // 70 inputs span two words, the second partly
	l := NewBinaryLinear(rng, "bl", in, out)
	p := l.Packed()
	if len(p.w) != out*packedWords(in) {
		t.Fatalf("packed length = %d words, want %d", len(p.w), out*packedWords(in))
	}
	latent := l.Latent.Value.Data()
	for j := 0; j < out; j++ {
		col := p.w[j*p.words : (j+1)*p.words]
		for i := 0; i < in; i++ {
			got := col[i/64]>>uint(i%64)&1 == 1
			if want := latent[i*out+j] >= 0; got != want {
				t.Errorf("weight (%d, %d): bit %v, latent %g", i, j, got, latent[i*out+j])
			}
		}
		if tail := col[len(col)-1] >> uint(in%64); tail != 0 {
			t.Errorf("column %d: bits past In set: %#x", j, tail)
		}
	}
}

func TestPackedLinearRejectsWrongWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewBinaryLinear(rng, "bl", 8, 2).Packed()
	if err := p.ForwardInto(make([]float32, 2), PackVector(make([]float32, 9)).Bytes()); err == nil {
		t.Error("accepted wrong input width")
	}
}

// XnorDotBytes is the byte-wide reference kernel (the original
// implementation, one OnesCount8 per byte) over PackSigns byte forms:
// the ground truth for the word-wide kernel's parity tests and the
// word-vs-byte benchmark.
func XnorDotBytes(n int, a, b []byte) (int, error) {
	if need := PackedSize(n); len(a) != need || len(b) != need {
		return 0, fmt.Errorf("bnn: XnorDotBytes packed size %d vs %d, want %d", len(a), len(b), need)
	}
	hamming := 0
	full := n / 8
	for i := 0; i < full; i++ {
		hamming += bits.OnesCount8(a[i] ^ b[i])
	}
	if rem := n % 8; rem != 0 {
		mask := byte(1<<uint(rem)) - 1
		hamming += bits.OnesCount8((a[full] ^ b[full]) & mask)
	}
	return n - 2*hamming, nil
}

// BenchmarkXnorDot compares the word-wide (64-bit lanes, deployed)
// kernel against the byte-wide reference on a device-exit-sized dot
// (1024 weights, the 4×16×16 feature map against one weight column).
func BenchmarkXnorDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float32, 1024)
	w := make([]float32, 1024)
	for i := range v {
		v[i] = float32(rng.Intn(2)*2 - 1)
		w[i] = float32(rng.Intn(2)*2 - 1)
	}
	pv, pw := PackVector(v), PackVector(w)
	vb, wb := pv.Bytes(), pw.Bytes()
	b.Run("word", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := XnorDot(pv, pw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("byte", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := XnorDotBytes(1024, vb, wb); err != nil {
				b.Fatal(err)
			}
		}
	})
}
