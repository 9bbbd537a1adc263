package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

func vecs(rows ...[]float32) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(rows))
	for i, r := range rows {
		out[i] = tensor.FromSlice(r, 1, len(r))
	}
	return out
}

func TestSchemeString(t *testing.T) {
	tests := []struct {
		s    Scheme
		want string
	}{{MP, "MP"}, {AP, "AP"}, {CC, "CC"}}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("Scheme.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("XX"); err == nil {
		t.Error("ParseScheme accepted unknown scheme")
	}
}

func TestMaxForward(t *testing.T) {
	a := NewMax()
	out := a.Forward(vecs(
		[]float32{0.1, 0.9, 0.2},
		[]float32{0.5, 0.3, 0.1},
		[]float32{0.4, 0.2, 0.8},
	), nil, false)
	want := []float32{0.5, 0.9, 0.8}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Errorf("max[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestMaxBackwardRoutesToWinner(t *testing.T) {
	a := NewMax()
	a.Forward(vecs(
		[]float32{0.1, 0.9},
		[]float32{0.5, 0.3},
	), nil, true)
	grads := a.Backward(tensor.FromSlice([]float32{1, 2}, 1, 2))
	// Element 0 won by device 1, element 1 by device 0.
	if grads[0].Data()[0] != 0 || grads[0].Data()[1] != 2 {
		t.Errorf("device 0 grads = %v, want [0 2]", grads[0].Data())
	}
	if grads[1].Data()[0] != 1 || grads[1].Data()[1] != 0 {
		t.Errorf("device 1 grads = %v, want [1 0]", grads[1].Data())
	}
}

func TestMaxRespectsMask(t *testing.T) {
	a := NewMax()
	out := a.Forward(vecs(
		[]float32{0.9, 0.9},
		[]float32{0.5, 0.3},
	), []bool{false, true}, true)
	if out.Data()[0] != 0.5 || out.Data()[1] != 0.3 {
		t.Errorf("masked max = %v, want [0.5 0.3]", out.Data())
	}
	grads := a.Backward(tensor.FromSlice([]float32{1, 1}, 1, 2))
	if grads[0].L2Norm() != 0 {
		t.Error("absent device received gradient")
	}
}

func TestMaxAllAbsentIsZero(t *testing.T) {
	a := NewMax()
	out := a.Forward(vecs([]float32{3, 4}), []bool{false}, false)
	for i, v := range out.Data() {
		if v != 0 {
			t.Errorf("all-absent max[%d] = %g, want 0", i, v)
		}
	}
}

func TestAvgForward(t *testing.T) {
	a := NewAvg()
	out := a.Forward(vecs(
		[]float32{1, 2},
		[]float32{3, 6},
	), nil, false)
	if out.Data()[0] != 2 || out.Data()[1] != 4 {
		t.Errorf("avg = %v, want [2 4]", out.Data())
	}
}

func TestAvgMaskExcludesAbsent(t *testing.T) {
	a := NewAvg()
	out := a.Forward(vecs(
		[]float32{1, 2},
		[]float32{3, 6},
		[]float32{100, 100},
	), []bool{true, true, false}, true)
	if out.Data()[0] != 2 || out.Data()[1] != 4 {
		t.Errorf("masked avg = %v, want [2 4]", out.Data())
	}
	grads := a.Backward(tensor.FromSlice([]float32{1, 1}, 1, 2))
	if grads[2].L2Norm() != 0 {
		t.Error("absent device received gradient")
	}
	if grads[0].Data()[0] != 0.5 {
		t.Errorf("present grad = %g, want 0.5 (1/k with k=2)", grads[0].Data()[0])
	}
}

func TestAvgGradientSumsToOne(t *testing.T) {
	// AP backward must conserve gradient mass: Σ_d grad_d = grad.
	a := NewAvg()
	a.Forward(vecs(
		[]float32{1, 2},
		[]float32{3, 4},
		[]float32{5, 6},
	), nil, true)
	grads := a.Backward(tensor.FromSlice([]float32{3, 9}, 1, 2))
	var s0, s1 float32
	for _, g := range grads {
		s0 += g.Data()[0]
		s1 += g.Data()[1]
	}
	if s0 != 3 || s1 != 9 {
		t.Errorf("gradient mass = [%g %g], want [3 9]", s0, s1)
	}
}

func TestConcatVecShapeAndBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewConcatVec(rng, "cc", 2, 3)
	out := a.Forward(vecs(
		[]float32{1, 2, 3},
		[]float32{4, 5, 6},
	), nil, true)
	if out.Dim(0) != 1 || out.Dim(1) != 3 {
		t.Fatalf("ConcatVec output %v, want [1 3] (projected back to C dims)", out.Shape())
	}
	grads := a.Backward(tensor.FromSlice([]float32{1, 1, 1}, 1, 3))
	if len(grads) != 2 {
		t.Fatalf("got %d gradients, want 2", len(grads))
	}
	for d, g := range grads {
		if g.Dim(0) != 1 || g.Dim(1) != 3 {
			t.Errorf("device %d grad shape %v, want [1 3]", d, g.Shape())
		}
		if g.L2Norm() == 0 {
			t.Errorf("device %d received zero gradient through CC", d)
		}
	}
}

func TestConcatVecHasLearnableProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewConcatVec(rng, "cc", 3, 2)
	if len(a.Params()) != 2 { // weight + bias
		t.Errorf("ConcatVec params = %d, want 2", len(a.Params()))
	}
}

func TestConcatFeatChannelLayout(t *testing.T) {
	a := NewConcatFeat(2)
	x0 := tensor.New(1, 2, 2, 2)
	x0.Fill(1)
	x1 := tensor.New(1, 2, 2, 2)
	x1.Fill(2)
	out := a.Forward([]*tensor.Tensor{x0, x1}, nil, true)
	wantShape := []int{1, 4, 2, 2}
	for i, d := range wantShape {
		if out.Dim(i) != d {
			t.Fatalf("ConcatFeat output %v, want %v", out.Shape(), wantShape)
		}
	}
	// First two channels from device 0, last two from device 1.
	if out.At(0, 0, 0, 0) != 1 || out.At(0, 3, 1, 1) != 2 {
		t.Error("ConcatFeat channel ordering wrong")
	}
}

func TestConcatFeatBackwardSplitsChannels(t *testing.T) {
	a := NewConcatFeat(2)
	x := tensor.New(2, 1, 2, 2)
	a.Forward([]*tensor.Tensor{x, x.Clone()}, nil, true)
	g := tensor.New(2, 2, 2, 2)
	for i := range g.Data() {
		g.Data()[i] = float32(i)
	}
	grads := a.Backward(g)
	// Batch 0: device 0 gets channels 0, device 1 gets channel 1.
	if grads[0].At(0, 0, 0, 0) != 0 || grads[1].At(0, 0, 0, 0) != 4 {
		t.Errorf("ConcatFeat backward wrong: %v / %v", grads[0].Data(), grads[1].Data())
	}
}

func TestConcatFeatMaskZeroesAbsent(t *testing.T) {
	a := NewConcatFeat(2)
	x0 := tensor.New(1, 1, 2, 2)
	x0.Fill(5)
	x1 := tensor.New(1, 1, 2, 2)
	x1.Fill(7)
	out := a.Forward([]*tensor.Tensor{x0, x1}, []bool{true, false}, false)
	if out.At(0, 0, 0, 0) != 5 {
		t.Error("present device channels missing")
	}
	if out.At(0, 1, 0, 0) != 0 {
		t.Error("absent device channels must be zero")
	}
}

func TestNewVectorAndNewFeatureFactories(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range Schemes() {
		if got := NewVector(rng, "v", s, 4, 3); got == nil {
			t.Errorf("NewVector(%v) = nil", s)
		}
		if got := NewFeature(s, 4); got == nil {
			t.Errorf("NewFeature(%v) = nil", s)
		}
	}
}

func TestFeatureOutChannels(t *testing.T) {
	tests := []struct {
		s          Scheme
		n, f, want int
	}{
		{MP, 6, 4, 4},
		{AP, 6, 4, 4},
		{CC, 6, 4, 24},
	}
	for _, tt := range tests {
		if got := FeatureOutChannels(tt.s, tt.n, tt.f); got != tt.want {
			t.Errorf("FeatureOutChannels(%v, %d, %d) = %d, want %d", tt.s, tt.n, tt.f, got, tt.want)
		}
	}
}

func TestMaxEqualsAvgForSingleDeviceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(raw [4]int8) bool {
		x := tensor.New(1, 4)
		for i, v := range raw {
			x.Data()[i] = float32(v) / 8
		}
		_ = rng
		mx := NewMax().Forward([]*tensor.Tensor{x}, nil, false)
		av := NewAvg().Forward([]*tensor.Tensor{x}, nil, false)
		for i := range mx.Data() {
			if mx.Data()[i] != av.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxDominatesAvgProperty(t *testing.T) {
	// For any inputs, elementwise max ≥ elementwise average.
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inputs := make([]*tensor.Tensor, 3)
		for d := range inputs {
			inputs[d] = tensor.New(2, 3)
			inputs[d].FillUniform(r, -1, 1)
		}
		_ = rng
		mx := NewMax().Forward(inputs, nil, false)
		av := NewAvg().Forward(inputs, nil, false)
		for i := range mx.Data() {
			if mx.Data()[i] < av.Data()[i]-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAggregatorsPanicOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes did not panic")
		}
	}()
	NewMax().Forward([]*tensor.Tensor{tensor.New(1, 2), tensor.New(1, 3)}, nil, false)
}

// TestForwardPooledMatchesForwardPerSample is the per-sample mask
// contract every aggregator's inference forward keeps: row i of
// ForwardPooled equals Forward on sample i alone under that sample's
// mask, bit for bit — for all-absent, single-device, full and random
// masks, for nil masks, and through a pool handing back dirty buffers.
// A mask count other than the batch size panics.
func TestForwardPooledMatchesForwardPerSample(t *testing.T) {
	const devices, n = 5, 9
	rng := rand.New(rand.NewSource(6))
	pool := tensor.NewPool()
	for _, tc := range []struct {
		name   string
		a      Aggregator
		sample []int // one sample's shape
	}{
		{"MP vec", NewMax(), []int{4}},
		{"MP feat", NewMax(), []int{2, 3, 3}},
		{"AP vec", NewAvg(), []int{4}},
		{"AP feat", NewAvg(), []int{2, 3, 3}},
		{"CC vec", NewConcatVec(rng, "cc", devices, 4), []int{4}},
		{"CC feat", NewConcatFeat(devices), []int{2, 3, 3}},
	} {
		inputs := make([]*tensor.Tensor, devices)
		for d := range inputs {
			inputs[d] = tensor.New(append([]int{n}, tc.sample...)...)
			inputs[d].FillUniform(rng, -1, 1)
		}
		masks := make([]uint16, n) // masks[0] stays all-absent
		masks[1] = 1 << uint(rng.Intn(devices))
		masks[2] = 1<<devices - 1
		for i := 3; i < n; i++ {
			masks[i] = uint16(rng.Intn(1 << devices))
		}
		for _, ms := range [][]uint16{masks, nil, masks} {
			out := tc.a.ForwardPooled(inputs, ms, pool)
			for i := 0; i < n; i++ {
				one := make([]*tensor.Tensor, devices)
				present := make([]bool, devices)
				for d := range one {
					one[d] = tensor.FromSlice(inputs[d].Sample(i), append([]int{1}, tc.sample...)...)
					present[d] = ms == nil || ms[i]&(1<<uint(d)) != 0
				}
				want := tc.a.Forward(one, present, false)
				for j, v := range want.Data() {
					if got := out.Sample(i)[j]; math.Float32bits(got) != math.Float32bits(v) {
						t.Fatalf("%s: sample %d (mask %v) element %d = %g, Forward alone gives %g", tc.name, i, present, j, got, v)
					}
				}
			}
			pool.Put(out)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: %d masks for a batch of %d did not panic", tc.name, n-1, n)
				}
			}()
			tc.a.ForwardPooled(inputs, masks[:n-1], pool)
		}()
	}
}
