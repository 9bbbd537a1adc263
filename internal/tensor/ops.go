package tensor

import (
	"fmt"
	"math"
)

// Add computes t += o elementwise.
func (t *Tensor) Add(o *Tensor) {
	assertSameShape("Add", t, o)
	td, od := t.data, o.data
	for i := range td {
		td[i] += od[i]
	}
}

// Sub computes t -= o elementwise.
func (t *Tensor) Sub(o *Tensor) {
	assertSameShape("Sub", t, o)
	td, od := t.data, o.data
	for i := range td {
		td[i] -= od[i]
	}
}

// Mul computes t *= o elementwise.
func (t *Tensor) Mul(o *Tensor) {
	assertSameShape("Mul", t, o)
	td, od := t.data, o.data
	for i := range td {
		td[i] *= od[i]
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	td := t.data
	for i := range td {
		td[i] *= s
	}
}

// AddScaled computes t += s*o elementwise (axpy).
func (t *Tensor) AddScaled(s float32, o *Tensor) {
	assertSameShape("AddScaled", t, o)
	td, od := t.data, o.data
	for i := range td {
		td[i] += s * od[i]
	}
}

// Apply replaces each element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	td := t.data
	for i := range td {
		td[i] = f(td[i])
	}
}

// Clamp limits every element to [lo, hi].
func (t *Tensor) Clamp(lo, hi float32) {
	td := t.data
	for i := range td {
		if td[i] < lo {
			td[i] = lo
		} else if td[i] > hi {
			td[i] = hi
		}
	}
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element value.
func (t *Tensor) Max() float32 {
	m := float32(math.Inf(-1))
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element value.
func (t *Tensor) Min() float32 {
	m := float32(math.Inf(1))
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns the maximum absolute element value.
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// ArgMaxRow returns the index of the maximum value in row r, treating t as
// a [rows, cols] matrix.
func (t *Tensor) ArgMaxRow(r int) int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRow requires a 2-D tensor")
	}
	cols := t.shape[1]
	row := t.data[r*cols : (r+1)*cols]
	best := 0
	for i := 1; i < cols; i++ {
		if row[i] > row[best] {
			best = i
		}
	}
	return best
}

// Row returns a view of row r of a 2-D tensor as a slice.
func (t *Tensor) Row(r int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	cols := t.shape[1]
	return t.data[r*cols : (r+1)*cols]
}

// SampleSize returns the number of elements in one leading-dimension
// sample block: Size()/Dim(0).
func (t *Tensor) SampleSize() int { return len(t.data) / t.shape[0] }

// Sample returns a view of the i-th leading-dimension block as a slice
// (row-major, all trailing dimensions flattened).
func (t *Tensor) Sample(i int) []float32 {
	ss := t.SampleSize()
	return t.data[i*ss : (i+1)*ss]
}

// Stack concatenates tensors along the leading dimension into a new
// tensor: inputs of shape [n_i, d...] (identical trailing dimensions)
// produce [Σn_i, d...]. It is how the cluster runtime coalesces
// per-sample tensors into one micro-batch so conv/GEMM amortize setup
// across samples.
func Stack(ts []*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Stack of no tensors")
	}
	trailing := ts[0].shape[1:]
	n := 0
	for i, t := range ts {
		if len(t.shape) != len(trailing)+1 {
			panic(fmt.Sprintf("tensor: Stack input %d has %d dims, want %d", i, len(t.shape), len(trailing)+1))
		}
		for j, d := range trailing {
			if t.shape[j+1] != d {
				panic(fmt.Sprintf("tensor: Stack input %d shape %v, want trailing %v", i, t.shape, trailing))
			}
		}
		n += t.shape[0]
	}
	shape := append([]int{n}, trailing...)
	out := New(shape...)
	off := 0
	for _, t := range ts {
		off += copy(out.data[off:], t.data)
	}
	return out
}
