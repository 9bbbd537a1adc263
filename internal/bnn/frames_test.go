package bnn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// FuzzFrameConvPParity drives the integer device block on byte frames
// (ForwardFrames) on every kernel path against the layered float forward
// (ConvP.Forward on the frames' values q/256, naive path), bit for bit:
// the fuzzer picks the geometry (1–8 channels, even sides 2–40, 1–9
// filters), the ±1 weights, every frame byte and the batch norms. Most
// filters get a batch norm whose flip point is exactly one of the
// block's own pooled values, so the threshold's compare (≥, not >) and
// its grid step (2⁻⁸) decide that output; the others get NaN, zero and
// random parameters.
func FuzzFrameConvPParity(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint8(15), uint8(15), []byte("frame-parity-seed-0123456789abcdef"))
	f.Add(uint8(2), uint8(7), uint8(8), uint8(4), uint8(9), []byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0xfe, 0x10, 0xef, 0x33, 0xcc, 0x55, 0xaa})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(0), uint8(3), uint8(4), uint8(19), uint8(19), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(1), uint8(5), uint8(6), uint8(10), uint8(16), []byte{0x00, 0x00, 0x00, 0x00, 0x18, 0x38, 0x78, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, nr, cr, fr, hr, wr uint8, raw []byte) {
		n, c, fl := 1+int(nr)%3, 1+int(cr)%8, 1+int(fr)%9
		h, w := 2+2*(int(hr)%20), 2+2*(int(wr)%20)
		word := func(i int) uint32 {
			if len(raw) < 4 {
				return uint32(i+1) * 2654435761
			}
			return binary.LittleEndian.Uint32(raw[(4*i)%(len(raw)-3):])
		}
		blk := NewConvP(rand.New(rand.NewSource(1)), "fuzz", c, fl)
		blk.Frames = true
		for i := range blk.Conv.Latent.Value.Data() {
			blk.Conv.Latent.Value.Data()[i] = float32(int32(word(i)>>7&2) - 1)
		}
		frames := cycleBytes(raw, n*c*h*w)
		x := tensor.New(n, c, h, w)
		for i, q := range frames {
			x.Data()[i] = float32(q) / 256
		}
		blk.SyncWeights()
		pooled := layered(t, func() *tensor.Tensor { return blk.Pool.Forward(blk.Conv.Forward(x, false), false) })
		plane := pooled.SampleSize() / fl
		nan := float32(math.NaN())
		for ci := 0; ci < fl; ci++ {
			u := word(1000 + ci)
			g, b := float32(int32(u&7)-3)/2, float32(int32(u>>3&15)-7)/4
			mean, v := float32(int32(u>>7&0x3ff)-512)/256, float32(u>>17&7)/2+0.25
			switch u >> 20 & 7 {
			case 0:
				g = nan
			case 1:
				b = nan
			case 2:
				g = 0
			default: // flip exactly at one of this filter's pooled values
				at := int(u>>23) % (pooled.Dim(0) * plane)
				mean = pooled.Data()[(at/plane*fl+ci)*plane+at%plane]
				g, b, v = float32(int32(u>>22&2)-1)*2, 0, 4-blk.BN.Eps
			}
			blk.BN.Gamma.Value.Data()[ci], blk.BN.Beta.Value.Data()[ci] = g, b
			blk.BN.RunningMean.Data()[ci], blk.BN.RunningVar.Data()[ci] = mean, v
		}
		blk.SyncWeights()
		want := packedOf(convpOracle(t, blk, x))

		prev := tensor.CurrentKernelPath()
		defer tensor.SetKernelPath(prev)
		for _, p := range tensor.KernelPaths() {
			if err := tensor.SetKernelPath(p); err != nil {
				t.Fatal(err)
			}
			if got := blk.ForwardFrames(frames, n, h, w, nil); !slices.Equal(got, want) {
				t.Fatalf("path=%v n=%d c=%d f=%d %dx%d: ForwardFrames\n%x\nlayered forward\n%x", p, n, c, fl, h, w, got, want)
			}
		}
	})
}

// layered runs fn on the naive path, where the layered forward is the
// oracle.
func layered(t testing.TB, fn func() *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	prev := tensor.CurrentKernelPath()
	if err := tensor.SetKernelPath(tensor.KernelNaive); err != nil {
		t.Fatal(err)
	}
	defer tensor.SetKernelPath(prev)
	return fn()
}
