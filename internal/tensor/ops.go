package tensor

import "math"

// Add computes t += o elementwise.
func (t *Tensor) Add(o *Tensor) {
	assertSameShape("Add", t, o)
	td, od := t.data, o.data
	for i := range td {
		td[i] += od[i]
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	td := t.data
	for i := range td {
		td[i] *= s
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
