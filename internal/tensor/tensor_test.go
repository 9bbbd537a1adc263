package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	tr := New(2, 3, 4)
	if got := tr.Size(); got != 24 {
		t.Fatalf("Size() = %d, want 24", got)
	}
	for i, v := range tr.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
	}{
		{"empty", nil},
		{"zero dim", []int{2, 0}},
		{"negative dim", []int{-1, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%v) did not panic", tt.shape)
				}
			}()
			New(tt.shape...)
		})
	}
}

func TestFromSlice(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	tr := FromSlice(data, 2, 3)
	if got := tr.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %g, want 6", got)
	}
	tr.Set(9, 0, 1)
	if data[1] != 9 {
		t.Errorf("FromSlice must alias input slice; data[1] = %g, want 9", data[1])
	}
}

func TestFromSlicePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong size did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tr := New(3, 4, 5)
	want := float32(0)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				tr.Set(want, i, j, k)
				want++
			}
		}
	}
	// Row-major layout means Data should be 0..59 in order.
	for i, v := range tr.Data() {
		if v != float32(i) {
			t.Fatalf("Data[%d] = %g, want %d", i, v, i)
		}
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	tr := New(2, 6)
	view := tr.Reshape(3, 4)
	view.Set(7, 2, 3)
	if got := tr.At(1, 5); got != 7 {
		t.Errorf("reshaped view did not share storage: At(1,5) = %g, want 7", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := New(2, 2)
	tr.Fill(2)
	c := tr.Clone()
	c.Set(5, 0, 0)
	if tr.At(0, 0) != 2 {
		t.Error("Clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)

	sum := a.Clone()
	sum.Add(b)
	wantSum := []float32{11, 22, 33, 44}
	for i, v := range sum.Data() {
		if v != wantSum[i] {
			t.Errorf("Add[%d] = %g, want %g", i, v, wantSum[i])
		}
	}

	sc := a.Clone()
	sc.Scale(0.5)
	wantSc := []float32{0.5, 1, 1.5, 2}
	for i, v := range sc.Data() {
		if v != wantSc[i] {
			t.Errorf("Scale[%d] = %g, want %g", i, v, wantSc[i])
		}
	}
}

func TestClamp(t *testing.T) {
	tr := FromSlice([]float32{-5, -1, 0, 1, 5}, 5, 1)
	tr.Clamp(-1, 1)
	want := []float32{-1, -1, 0, 1, 1}
	for i, v := range tr.Data() {
		if v != want[i] {
			t.Errorf("Clamp[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestReductions(t *testing.T) {
	tr := FromSlice([]float32{-3, 1, 4, -2}, 2, 2)
	if got := tr.AbsMax(); got != 4 {
		t.Errorf("AbsMax = %g, want 4", got)
	}
	if got := tr.L2Norm(); math.Abs(got-math.Sqrt(30)) > 1e-9 {
		t.Errorf("L2Norm = %g, want sqrt(30)", got)
	}
}

func TestArgMaxRow(t *testing.T) {
	tr := FromSlice([]float32{0.1, 0.7, 0.2, 0.9, 0.05, 0.05}, 2, 3)
	if got := tr.ArgMaxRow(0); got != 1 {
		t.Errorf("ArgMaxRow(0) = %d, want 1", got)
	}
	if got := tr.ArgMaxRow(1); got != 0 {
		t.Errorf("ArgMaxRow(1) = %d, want 0", got)
	}
}

func TestRowView(t *testing.T) {
	tr := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	row := tr.Row(1)
	row[0] = 9
	if tr.At(1, 0) != 9 {
		t.Error("Row must return a live view")
	}
	img := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 2, 2, 3)
	if img.SampleSize() != 6 {
		t.Errorf("SampleSize = %d, want 6", img.SampleSize())
	}
	if img.Sample(1)[0] != 7 {
		t.Errorf("Sample(1)[0] = %v, want 7", img.Sample(1)[0])
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Errorf("MatMul[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	a.FillUniform(rng, -1, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	c := MatMul(a, id)
	for i, v := range c.Data() {
		if v != a.Data()[i] {
			t.Fatalf("A·I ≠ A at %d: %g vs %g", i, v, a.Data()[i])
		}
	}
}

// matmulNaive is an independent reference implementation used by the
// property tests below.
func matmulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

func approxEqual(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(mRaw, kRaw, nRaw uint8) bool {
		m, k, n := int(mRaw%6)+1, int(kRaw%6)+1, int(nRaw%6)+1
		a := New(m, k)
		b := New(k, n)
		a.FillUniform(rng, -2, 2)
		b.FillUniform(rng, -2, 2)
		got := MatMul(a, b)
		want := matmulNaive(a, b)
		for i := range got.Data() {
			if !approxEqual(got.Data()[i], want.Data()[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(mRaw, kRaw, nRaw uint8) bool {
		m, k, n := int(mRaw%5)+1, int(kRaw%5)+1, int(nRaw%5)+1
		a := New(m, k)
		bT := New(n, k) // stored transposed
		a.FillUniform(rng, -1, 1)
		bT.FillUniform(rng, -1, 1)
		b := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				b.Set(bT.At(i, j), j, i)
			}
		}
		got := MatMulTransB(a, bT)
		want := matmulNaive(a, b)
		for i := range got.Data() {
			if !approxEqual(got.Data()[i], want.Data()[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(mRaw, kRaw, nRaw uint8) bool {
		m, k, n := int(mRaw%5)+1, int(kRaw%5)+1, int(nRaw%5)+1
		aT := New(k, m) // stored transposed
		b := New(k, n)
		aT.FillUniform(rng, -1, 1)
		b.FillUniform(rng, -1, 1)
		a := New(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				a.Set(aT.At(i, j), j, i)
			}
		}
		got := MatMulTransA(aT, b)
		want := matmulNaive(a, b)
		for i := range got.Data() {
			if !approxEqual(got.Data()[i], want.Data()[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestFillDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New(10000)

	mean := func() float64 {
		var s float64
		for _, v := range tr.Data() {
			s += float64(v)
		}
		return s / float64(tr.Size())
	}

	tr.FillUniform(rng, -1, 1)
	if m := mean(); math.Abs(m) > 0.05 {
		t.Errorf("uniform mean = %g, want ≈0", m)
	}
	if tr.AbsMax() > 1 {
		t.Error("uniform samples out of range")
	}

	tr.FillNormal(rng, 2, 0.5)
	if m := mean(); math.Abs(m-2) > 0.05 {
		t.Errorf("normal mean = %g, want ≈2", m)
	}

	tr.FillHe(rng, 50)
	wantStd := math.Sqrt(2.0 / 50.0)
	var ss float64
	for _, v := range tr.Data() {
		ss += float64(v) * float64(v)
	}
	std := math.Sqrt(ss / float64(tr.Size()))
	if math.Abs(std-wantStd) > 0.02 {
		t.Errorf("He std = %g, want ≈%g", std, wantStd)
	}

	tr.FillGlorot(rng, 30, 70)
	limit := float32(math.Sqrt(6.0 / 100.0))
	if tr.AbsMax() > limit {
		t.Error("Glorot samples out of range")
	}
}
