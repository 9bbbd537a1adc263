package bnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// The tests in this file pin the fused ConvP pass's XNOR convolution
// (xnorconv.go) to the layered naive-path reference: on ternary inputs,
// which take it, and on bands that must fall back to the float tile.

var negZero = float32(math.Copysign(0, -1))

// fillTernary fills dst with −1, +1, +0 and −0.
func fillTernary(dst []float32, rng *rand.Rand) {
	for i := range dst {
		dst[i] = [6]float32{1, 1, -1, -1, 0, negZero}[rng.Intn(6)]
	}
}

// TestConvPXnorDiffAllPaths runs every ternary case through ForwardPooled
// on every path against the naive-path reference: all-±1 bands, zeroed
// channel groups (absent devices), −0, and one NaN, ±Inf or non-ternary
// finite value (only the bands reading it fall back), for channel counts
// on both sides of the one-, two- and three-word window segments. Batch
// 1 with three workers splits the big geometry's filters unevenly
// ([0,6) [6,12) [12,16)), so the AVX2 sweep and the one-filter sweep
// share rows.
func TestConvPXnorDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pool := tensor.NewPool()
	defer tensor.SetMaxWorkers(0)
	cases := []struct {
		name string
		fill func(x *tensor.Tensor)
	}{
		{"signs", func(x *tensor.Tensor) { fillSigns(x.Data(), rng) }},
		{"absent-devices", func(x *tensor.Tensor) {
			fillSigns(x.Data(), rng)
			c, plane := x.Dim(1), x.Dim(2)*x.Dim(3)
			for n := 0; n < x.Dim(0); n++ {
				clear(x.Sample(n)[c/4*plane : c/2*plane])
				clear(x.Sample(n)[(c-1)*plane:])
			}
		}},
		{"ternary-negzero", func(x *tensor.Tensor) { fillTernary(x.Data(), rng) }},
		{"all-negzero", func(x *tensor.Tensor) { x.Fill(negZero) }},
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0.5, 2} {
		v := v
		cases = append(cases, struct {
			name string
			fill func(x *tensor.Tensor)
		}{fmt.Sprintf("one-%g", v), func(x *tensor.Tensor) {
			fillSigns(x.Data(), rng)
			x.Data()[rng.Intn(x.Size())] = v
		}})
	}
	for _, c := range []int{1, 3, 16, 24, 33, 64, 65} {
		for _, g := range [][3]int{{16, 16, 16}, {5, 8, 12}, {9, 7, 5}} { // filters, h, w
			f, h, w := g[0], g[1], g[2]
			blk := newDiffConvP(rng, c, f)
			for _, tc := range cases {
				for _, run := range [][2]int{{2, 1}, {1, 3}} { // batch, workers
					tensor.SetMaxWorkers(run[1])
					x := tensor.New(run[0], c, h, w)
					tc.fill(x)
					checkAllPaths(t, fmt.Sprintf("%s c=%d f=%d %dx%d n=%d", tc.name, c, f, h, w, run[0]), blk, x, convpOracle(t, blk, x), pool)
				}
			}
		}
	}
}

// TestConvPXnorFilterRangeParity computes filter sub-ranges of one sample
// directly, as the filter split's workers do, so ranges that start and
// end inside a group of four reach both sweeps.
func TestConvPXnorFilterRangeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, c := range []int{16, 24, 65} {
		const f, h, w = 16, 16, 16
		blk := newDiffConvP(rng, c, f)
		x := tensor.New(1, c, h, w)
		fillTernary(x.Data(), rng)
		want := convpOracle(t, blk, x)
		pl := planFused(c, h, w, f)
		per := pl.ph * pl.pw
		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			if p == tensor.KernelNaive {
				return
			}
			for _, r := range [][2]int{{0, 1}, {1, 2}, {3, 7}, {5, 16}, {4, 12}, {13, 16}, {0, 16}} {
				y := tensor.New(1, f, pl.ph, pl.pw)
				blk.fusedRange(p, y, x, pl, nil, 0, 1, r[0], r[1])
				for i := r[0] * per; i < r[1]*per; i++ {
					if y.Data()[i] != want.Data()[i] {
						t.Fatalf("path=%v c=%d filters [%d,%d): element %d = %g, reference %g", p, c, r[0], r[1], i, y.Data()[i], want.Data()[i])
					}
				}
			}
		})
	}
}

// TestConvPXnorBandFallbackParity puts one non-ternary value in a ternary
// input and checks band by band that exactly the bands reading its row —
// the band it lies in, and a neighbour whose halo row it is — refuse the
// pack, on both packing paths, and that the block's output still matches
// the reference.
func TestConvPXnorBandFallbackParity(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const c, f, h, w = 24, 16, 16, 16
	blk := newDiffConvP(rng, c, f)
	pl := planFused(c, h, w, f)
	if pl.band >= h {
		t.Fatalf("geometry has one band (%d rows); the test needs several", pl.band)
	}
	for _, y := range []int{pl.band / 2, pl.band - 1, pl.band} {
		x := tensor.New(1, c, h, w)
		fillSigns(x.Data(), rng)
		x.Set(0.5, 0, c-1, y, w-1) // the last value a band's pack reaches
		for _, p := range []tensor.KernelPath{tensor.KernelGo, tensor.KernelSIMD} {
			if !tensor.KernelPathSupported(p) {
				continue
			}
			s := newXnorScratch(make([]float32, pl.xbLen), pl)
			for r0 := 0; r0 < h; r0 += pl.band {
				rows := min(pl.band, h-r0)
				reads := r0-1 <= y && y <= r0+rows
				if got := packTernaryBand(p, s, x.Sample(0), pl, r0, rows); got == reads {
					t.Errorf("path=%v value in row %d: band at row %d packed=%v, want %v", p, y, r0, got, !reads)
				}
			}
		}
		checkAllPaths(t, fmt.Sprintf("one 0.5 in row %d", y), blk, x, convpOracle(t, blk, x), tensor.NewPool())
	}
}

// TestConvPXnorResyncParity changes a block's latent weights after
// construction: SyncWeights must re-derive the packed filters with the
// float ones, so every path follows the new weights.
func TestConvPXnorResyncParity(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	blk := newDiffConvP(rng, 24, 16)
	x := tensor.New(2, 24, 16, 16)
	fillTernary(x.Data(), rng)
	before := convpOracle(t, blk, x)
	lat := blk.Conv.Latent.Value.Data()
	for i := range lat {
		if rng.Intn(3) == 0 {
			lat[i] = -lat[i]
		}
	}
	blk.SyncWeights()
	want := convpOracle(t, blk, x)
	changed := false
	for i, v := range want.Data() {
		changed = changed || v != before.Data()[i]
	}
	if !changed {
		t.Fatal("flipping a third of the latent weights changed no output")
	}
	checkAllPaths(t, "after re-sync", blk, x, want, tensor.NewPool())

	l := NewBinaryLinear(rng, "resync", 100, 3)
	in := tensor.New(1, 100)
	fillSigns(in.Data(), rng)
	for i, v := range l.Latent.Value.Data() {
		if i%2 == 0 {
			l.Latent.Value.Data()[i] = -v
		}
	}
	l.SyncWeights()
	wantLin := l.Forward(in, false)
	got := make([]float32, 3)
	if err := l.Packed().ForwardInto(got, PackVector(in.Row(0)).Bytes()); err != nil {
		t.Fatal(err)
	}
	for j, v := range got {
		if v != wantLin.At(0, j) {
			t.Errorf("packed linear after re-sync: output %d = %g, float %g", j, v, wantLin.At(0, j))
		}
	}
}

// TestTranspose8RoundTrip pins the 8×8 bit transpose the simd pack uses.
func TestTranspose8RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 100; trial++ {
		x := rng.Uint64()
		tx := transpose8(x)
		for r := 0; r < 8; r++ {
			for col := 0; col < 8; col++ {
				if x>>(8*r+col)&1 != tx>>(8*col+r)&1 {
					t.Fatalf("transpose8(%#x) = %#x: bit (%d,%d) not moved to (%d,%d)", x, tx, r, col, col, r)
				}
			}
		}
		if transpose8(tx) != x {
			t.Fatalf("transpose8 is not an involution on %#x", x)
		}
	}
}
