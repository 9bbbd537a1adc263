package tensor

import (
	"fmt"
	"math"
)

// This file holds the pool kernel of the bit-domain ConvP block
// (bnn.ConvP.ForwardPacked): the 3×3 stride-2 max pool over the block's
// integer convolution rows, ending in each filter's threshold compare.
// It takes the dispatch path from the caller, which reads it once per
// forward, and has a portable (go) and an AVX2 (simd) implementation;
// the naive path runs the portable one.

var negInf32 = float32(math.Inf(-1))

// PoolThresholdRows computes p rows of k outputs of a 3×3, stride-2,
// pad-1 max pool, p·k ≤ 64, and compares each window maximum m with a
// threshold: output i of row j is bit j·k+i of the result, set when
// s·m ≥ t. With s = ±1 and t an integer (or ±Inf) the compare is exact
// on the bit-domain ConvP pass's integer convolution outputs.
//
// Pooled row j reads three input rows from j·step on in r0, r1 and r2,
// each starting at input column −1, so each must hold 2k+1 values past
// (p−1)·step; the caller supplies −Inf where the window leaves the image
// (or passes a neighbouring row twice — a duplicate cannot change a
// maximum). The maximum scans r0, r1, r2 in that order, starts at −Inf
// and takes a value only when it compares greater, the clipped scan's
// rule: NaN never wins and an all-NaN window pools to −Inf.
func PoolThresholdRows(path KernelPath, r0, r1, r2 []float32, step, p, k int, s, t float32) uint64 {
	if need := (p-1)*step + 2*k + 1; p*k > 64 || len(r0) < need || len(r1) < need || len(r2) < need {
		panic(fmt.Sprintf("tensor: PoolThresholdRows rows %d,%d,%d too short for %d×%d ≤ 64 outputs %d apart", len(r0), len(r1), len(r2), p, k, step))
	}
	if path == KernelSIMD && k%4 == 0 {
		return poolThresholdRowsSIMD(r0, r1, r2, step, p, k, s, t)
	}
	var out uint64
	for j, b := 0, 0; j < p; j++ {
		for i := 0; i < k; i, b = i+1, b+1 {
			at := j*step + 2*i
			m := window3(window3(window3(negInf32, r0[at:]), r1[at:]), r2[at:])
			if s*m >= t {
				out |= 1 << uint(b)
			}
		}
	}
	return out
}

// window3 folds the first three values of r into the running maximum m.
func window3(m float32, r []float32) float32 {
	r = r[:3:3]
	if r[0] > m {
		m = r[0]
	}
	if r[1] > m {
		m = r[1]
	}
	if r[2] > m {
		m = r[2]
	}
	return m
}
