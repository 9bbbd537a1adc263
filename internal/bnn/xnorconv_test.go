package bnn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// The tests in this file pin the ConvP block's XNOR convolution
// (xnorconv.go), which runs on bit-plane inputs, and the planes
// themselves to the layered naive-path reference.

var negZero = float32(math.Copysign(0, -1))

// fillTernary fills dst with −1, +1, +0 and −0.
func fillTernary(dst []float32, rng *rand.Rand) {
	for i := range dst {
		dst[i] = [6]float32{1, 1, -1, -1, 0, negZero}[rng.Intn(6)]
	}
}

// TestConvPXnorDiffAllPaths runs every ternary case through both routes
// into the convolution on every path against the naive-path reference:
// the float map through ForwardPooled (the layered forward) and, when it
// is ternary, the same map as planes through ForwardPacked (XNOR). The
// cases are all-±1 maps, zeroed channel groups (absent devices), −0,
// and one NaN, ±Inf or non-ternary finite value (a float input, so the
// layered forward only), for channel counts on both sides of the one-,
// two- and three-word window segments, at batch 2 on one worker and
// batch 1 on three.
func TestConvPXnorDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pool := tensor.NewPool()
	defer tensor.SetMaxWorkers(0)
	cases := []struct {
		name    string
		ternary bool
		fill    func(x *tensor.Tensor)
	}{
		{"signs", true, func(x *tensor.Tensor) { fillSigns(x.Data(), rng) }},
		{"absent-devices", true, func(x *tensor.Tensor) {
			fillSigns(x.Data(), rng)
			c, plane := x.Dim(1), x.Dim(2)*x.Dim(3)
			for n := 0; n < x.Dim(0); n++ {
				clear(x.Sample(n)[c/4*plane : c/2*plane])
				clear(x.Sample(n)[(c-1)*plane:])
			}
		}},
		{"ternary-negzero", true, func(x *tensor.Tensor) { fillTernary(x.Data(), rng) }},
		{"all-negzero", true, func(x *tensor.Tensor) { x.Fill(negZero) }},
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0.5, 2} {
		v := v
		cases = append(cases, struct {
			name    string
			ternary bool
			fill    func(x *tensor.Tensor)
		}{fmt.Sprintf("one-%g", v), false, func(x *tensor.Tensor) {
			fillSigns(x.Data(), rng)
			x.Data()[rng.Intn(x.Size())] = v
		}})
	}
	for _, c := range []int{1, 3, 16, 24, 33, 64, 65} {
		for _, g := range [][3]int{{16, 16, 16}, {5, 8, 12}, {9, 7, 5}} { // filters, h, w
			f, h, w := g[0], g[1], g[2]
			blk := newDiffConvP(rng, c, f)
			blk.SyncWeights() // the thresholds follow the random batch norm
			for _, tc := range cases {
				for _, run := range [][2]int{{2, 1}, {1, 3}} { // batch, workers
					tensor.SetMaxWorkers(run[1])
					x := tensor.New(run[0], c, h, w)
					tc.fill(x)
					what := fmt.Sprintf("%s c=%d f=%d %dx%d n=%d", tc.name, c, f, h, w, run[0])
					want := convpOracle(t, blk, x)
					checkAllPaths(t, what, blk, x, want, pool)
					if !tc.ternary {
						continue
					}
					in := planesOf(x)
					forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
						packed := blk.ForwardPacked(in, pool)
						if !slices.Equal(packed, packedOf(want)) {
							t.Fatalf("%s path=%v: ForwardPacked differs from the packed reference", what, p)
						}
						pool.PutBytes(packed)
					})
				}
			}
		}
	}
}

// TestConvPXnorBandHaloParity puts one 0 in the rows that two bands
// read — inside a band, its last row, and the next band's first row,
// which is the previous band's halo — of an input of several bands. As
// planes every band runs XNOR, reading its halo rows from the planes in
// place, and must match the reference on every path.
func TestConvPXnorBandHaloParity(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const c, f, h, w = 24, 16, 32, 32
	blk := newDiffConvP(rng, c, f)
	blk.SyncWeights()
	pl := planFused(c, h, w, f)
	if pl.band >= h {
		t.Fatalf("geometry has one band (%d rows); the test needs several", pl.band)
	}
	pool := tensor.NewPool()
	for _, y := range []int{pl.band / 2, pl.band - 1, pl.band} {
		x := tensor.New(1, c, h, w)
		fillSigns(x.Data(), rng)
		x.Set(0, 0, c-1, y, w-1)
		want := packedOf(convpOracle(t, blk, x))
		in := planesOf(x)
		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			packed := blk.ForwardPacked(in, pool)
			if !slices.Equal(packed, want) {
				t.Errorf("path=%v one 0 in row %d: ForwardPacked differs from the packed reference", p, y)
			}
			pool.PutBytes(packed)
		})
	}
}

// TestConvPXnorResyncParity changes a block's latent weights after
// construction: SyncWeights must re-derive the packed filters with the
// float ones, so the layered forward and the XNOR convolution follow the
// new weights on every path.
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
	forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
		if !slices.Equal(blk.ForwardPacked(planesOf(x), nil), packedOf(want)) {
			t.Fatalf("path=%v: ForwardPacked after re-sync differs from the packed reference", p)
		}
	})

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

// TestTranspose8RoundTrip pins the 8×8 bit transpose Planes.Place uses.
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

// planesOf builds the bit planes of a ternary tensor element by element,
// the reference for Place and for ForwardPlanes' output: +1 sets both
// bits, −1 the nonzero bit, ±0 neither.
func planesOf(x *tensor.Tensor) Planes {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	pl := GetPlanes(nil, n, c, h, w)
	for i := 0; i < n; i++ {
		sgn, nz := pl.rows(i, 0)
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					v := x.At(i, ci, y, xx)
					if v == 0 {
						continue
					}
					b := (y+1)*pl.rsw*64 + (xx+1)*c + ci
					nz[b/64] |= 1 << uint(b%64)
					if v > 0 {
						sgn[b/64] |= 1 << uint(b%64)
					}
				}
			}
		}
	}
	return pl
}

func samePlanes(a, b Planes) bool {
	return a.N == b.N && a.C == b.C && a.H == b.H && a.W == b.W &&
		slices.Equal(a.sgn, b.sgn) && slices.Equal(a.nz, b.nz)
}

// packedOf packs every sample of a ±1 tensor the way ForwardPacked
// writes them.
func packedOf(y *tensor.Tensor) []byte {
	out := make([]byte, y.Dim(0)*PackedSize(y.SampleSize()))
	PackSamplesInto(out, y)
	return out
}

// TestPlanesPlaceParity places packed ±1 maps as channel groups (CC) and
// on top of each other (MP) and compares the planes with ones built
// element by element from the float CC concatenation and MP maximum:
// absent groups keep their nonzero bits clear, and an element no map
// covers stays 0.
func TestPlanesPlaceParity(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, g := range [][4]int{{6, 4, 16, 16}, {3, 8, 8, 8}, {4, 3, 5, 7}, {2, 9, 3, 13}, {1, 65, 2, 3}} { // devices, f, h, w
		d, f, h, w := g[0], g[1], g[2], g[3]
		const n = 3
		maps := make([]*tensor.Tensor, d)
		for k := range maps {
			maps[k] = tensor.New(n, f, h, w)
			fillSigns(maps[k].Data(), rng)
		}
		present := func(i, k int) bool { return (i+k)%3 != 0 || i == k } // sample 0 keeps device 0 only among the first three
		cc, mp := tensor.New(n, d*f, h, w), tensor.New(n, f, h, w)
		gotCC, gotMP := GetPlanes(nil, n, d*f, h, w), GetPlanes(nil, n, f, h, w)
		for i := 0; i < n; i++ {
			for k, m := range maps {
				if !present(i, k) {
					continue
				}
				copy(cc.Sample(i)[k*f*h*w:], m.Sample(i))
				for e, v := range m.Sample(i) {
					if mp.Sample(i)[e] == 0 || v > mp.Sample(i)[e] {
						mp.Sample(i)[e] = v
					}
				}
				bits := PackVector(m.Sample(i)).Bytes()
				gotCC.Place(i, k*f, [][]byte{bits}, f)
				gotMP.Place(i, 0, [][]byte{bits}, f)
			}
		}
		if !samePlanes(gotCC, planesOf(cc)) {
			t.Errorf("%v: CC placement differs from the element-wise planes", g)
		}
		if !samePlanes(gotMP, planesOf(mp)) {
			t.Errorf("%v: MP placement differs from the element-wise planes", g)
		}
	}
}

// plantBN gives filter 0 a negative γ, filter 1 γ = 0, filter 2 a NaN γ,
// filter 3 a NaN β and filter 4 a shift that puts the integer 3 exactly
// on the zero crossing (scale 0.5, shift −1.5), then re-derives the
// thresholds.
func plantBN(blk *ConvP) {
	bn, f := blk.BN, blk.Filters()
	nan := float32(math.NaN())
	set := func(ci int, gamma, beta, mean, v float32) {
		if ci < f {
			bn.Gamma.Value.Data()[ci], bn.Beta.Value.Data()[ci] = gamma, beta
			bn.RunningMean.Data()[ci], bn.RunningVar.Data()[ci] = mean, v
		}
	}
	set(0, -0.75, 0.25, 1, 1)
	set(1, 0, 0.5, 2, 1)
	set(2, nan, 0.5, 0, 1)
	set(3, 1, nan, 0, 1)
	set(4, 1, 0, 3, 4-bn.Eps)
	blk.SyncWeights()
}

// TestConvPBitsDiffAllPaths runs ternary maps through ForwardPacked and
// ForwardPlanes on every path and compares them with the layered
// reference's ±1 output, packed and as planes: random batch-norm
// statistics, planted γ < 0, γ = 0, NaN γ or β and an exact zero
// crossing, zeroed channel groups (absent devices), −0 and all-zero
// maps, and channel counts across the window-segment widths, at
// several batch sizes and worker bounds.
func TestConvPBitsDiffAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	pool := tensor.NewPool()
	defer tensor.SetMaxWorkers(0)
	fills := map[string]func(x *tensor.Tensor){
		"signs": func(x *tensor.Tensor) { fillSigns(x.Data(), rng) },
		"absent-devices": func(x *tensor.Tensor) {
			fillSigns(x.Data(), rng)
			c, plane := x.Dim(1), x.Dim(2)*x.Dim(3)
			for n := 0; n < x.Dim(0); n++ {
				clear(x.Sample(n)[c/4*plane : c/2*plane])
			}
		},
		"ternary-negzero": func(x *tensor.Tensor) { fillTernary(x.Data(), rng) },
		"all-zero":        func(x *tensor.Tensor) { x.Zero() },
	}
	for _, c := range []int{1, 3, 16, 24, 33, 64, 65} {
		for _, g := range [][3]int{{16, 16, 16}, {5, 8, 12}, {9, 7, 5}} { // filters, h, w
			f, h, w := g[0], g[1], g[2]
			blocks := map[string]*ConvP{"random": newDiffConvP(rng, c, f), "crossing": crossingConvP(rng, c, f), "planted": newDiffConvP(rng, c, f)}
			blocks["random"].SyncWeights()
			blocks["crossing"].SyncWeights()
			plantBN(blocks["planted"])
			for bname, blk := range blocks {
				for fname, fill := range fills {
					for _, run := range [][2]int{{2, 1}, {1, 3}, {5, 2}} { // batch, workers
						tensor.SetMaxWorkers(run[1])
						x := tensor.New(run[0], c, h, w)
						fill(x)
						want := convpOracle(t, blk, x)
						in := planesOf(x)
						what := fmt.Sprintf("%s %s c=%d f=%d %dx%d n=%d", bname, fname, c, f, h, w, run[0])
						forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
							packed := blk.ForwardPacked(in, pool)
							if !slices.Equal(packed, packedOf(want)) {
								t.Fatalf("%s path=%v: ForwardPacked differs from the packed reference", what, p)
							}
							pool.PutBytes(packed)
							planes := blk.ForwardPlanes(in, pool)
							if !samePlanes(planes, planesOf(want)) {
								t.Fatalf("%s path=%v: ForwardPlanes differs from the reference's planes", what, p)
							}
							planes.Put(pool)
						})
					}
				}
			}
		}
	}
}
