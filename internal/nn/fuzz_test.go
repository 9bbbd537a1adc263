package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// FuzzConv2DBackwardParity pins the GEMM backward against the per-tap
// loop it replaced (backwardTaps) on fuzzer-chosen shapes — kernel 1–5,
// stride 1–3, padding 0–2, 1–17 input and output channels, batch 1–9,
// sides 1–19 — and a worker count of 1–3, on every kernel path. Inputs,
// output gradients, weights and the gradients already accumulated are
// finite, drawn from seed with a fuzzer-chosen share of planted ±0
// (weights included): the dW, dX and bias gradients must match bit for
// bit.
func FuzzConv2DBackwardParity(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(1), uint8(1), uint8(2), uint8(1), uint8(5), uint8(5), uint8(0), uint8(1), int64(1))
	f.Fuzz(func(t *testing.T, kernel, stride, pad, inC, outC, batch, h, w, workers, zeros uint8, seed int64) {
		k := 1 + int(kernel)%5
		st := 1 + int(stride)%3
		pd := int(pad) % 3
		ih := max(1+int(h)%19, k-2*pd)
		iw := max(1+int(w)%19, k-2*pd)
		rng := rand.New(rand.NewSource(seed))
		// zeroShare is the chance that a value is a planted ±0.
		zeroShare := [4]float64{0, 0.125, 0.25, 0.5}[zeros%4]
		fill := func(d []float32) {
			for i := range d {
				switch v := rng.Float64(); {
				case v < zeroShare/2:
					d[i] = 0
				case v < zeroShare:
					d[i] = float32(math.Copysign(0, -1))
				default:
					d[i] = rng.Float32()*2 - 1
				}
			}
		}
		conv := NewConv2D(rng, "fuzz", 1+int(inC)%17, 1+int(outC)%17, k, st, pd, seed%2 == 0)
		fill(conv.Weight.Value.Data())
		fill(conv.Weight.Grad.Data())
		if conv.Bias != nil {
			fill(conv.Bias.Value.Data())
			fill(conv.Bias.Grad.Data())
		}
		n := 1 + int(batch)%9
		x := tensor.New(n, conv.InC, ih, iw)
		fill(x.Data())
		g := tensor.New(n, conv.OutC, conv.OutSize(ih), conv.OutSize(iw))
		fill(g.Data())
		checkBackwardParity(t, conv, x, g, []int{1 + int(workers)%3})
	})
}
