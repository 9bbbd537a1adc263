// Package tensor provides a minimal dense float32 N-dimensional tensor used
// by the neural-network substrate. Data is stored in row-major order.
//
// Shape mismatches are programmer errors, not runtime conditions, so the
// package follows the gonum convention: malformed calls panic with a
// descriptive message rather than returning errors.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense row-major float32 array with an explicit shape.
// The zero value is an empty tensor; use New or FromSlice to construct one.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. Every dimension
// must be positive.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the product of the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	ok := true
	for _, d := range shape {
		if d <= 0 {
			ok = false
		}
		n *= d
	}
	if !ok {
		// Formatting in a helper on a copy keeps `shape` itself from
		// escaping: callers' variadic slices stay on their stacks, which
		// the zero-allocation serving path depends on.
		panicBadShape(append([]int(nil), shape...))
	}
	return n
}

func panicBadShape(shape []int) {
	panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Sizes must match; shapes may differ.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: copy size mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Reshape returns a view of t with a new shape of equal total size. The
// returned tensor shares storage with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v (size %d)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	clear(t.data)
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set assigns v to the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if d != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, for debugging.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor%v", t.shape)
	if len(t.data) <= 8 {
		fmt.Fprintf(&sb, "%v", t.data)
	} else {
		fmt.Fprintf(&sb, "[%g %g %g ...]", t.data[0], t.data[1], t.data[2])
	}
	return sb.String()
}

func assertSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
