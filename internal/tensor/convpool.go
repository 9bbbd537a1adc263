package tensor

import (
	"fmt"
	"math"
)

// This file holds the two kernels of the fused ConvP inference block
// (bnn.ConvP.ForwardPooled): a 3×3 stride-1 sign convolution that reads
// a zero-padded input band directly — no im2col matrix — and the 3×3
// stride-2 max pool that applies batch normalization and the binary
// activation to each pooled value before it is stored. Both take the
// dispatch path from the caller, which reads it once per forward, and
// have a portable (go) and an AVX2+FMA (simd) implementation; the naive
// path runs the portable one.

// convSignLanes is the position granularity of ConvSign3x3's widest
// kernel: a band's destination rows and source need slack for its
// position count rounded up to a multiple of it (see ConvSignSpan).
const convSignLanes = 16

var negInf32 = float32(math.Inf(-1))

// ConvSignSpan returns how many flat positions ConvSign3x3 may write per
// filter for a band of rows rows that are wp wide: rows*wp rounded up to
// the kernel granularity.
func ConvSignSpan(rows, wp int) int {
	return (rows*wp + convSignLanes - 1) / convSignLanes * convSignLanes
}

// ConvSign3x3 computes a 3×3, stride-1 convolution with ±1 weights over
// the flat index space of a zero-padded input band. src holds ch planes
// of plane floats each, every plane a run of rows wp floats wide whose
// first and last column (and any row outside the image) are zero. For
// filters f in [f0, f1) and output row oy < rows, column ox < wp−2, at
// flat position j = oy*wp + ox,
//
//	dst[f*ds+j] = Σ w[f*ch*9 + (c*3+ky)*3+kx] · src[c*plane + ky*wp + kx + j]
//
// summed in ascending (c, ky, kx) order from +0. Every weight must be
// exactly +1 or −1, so each term is an exact ±src and the sum is the
// exact ±1 product Gemm computes over the im2col matrix in that same
// ascending (c, ky, kx) order, padding taps included: bit-identical to
// the lowered convolution on every path. The portable kernel adds or
// subtracts each source value; the simd kernel fuses w·b into the sum
// (one FMA per tap), which rounds once to the same float because the
// product is exact. A weight that is not ±1 breaks the contract and the
// paths may then disagree; bnn.Binarize never produces one. The other
// positions below ConvSignSpan(rows, wp) — the two that end each row
// and the rounding slack — may be written with values the caller must
// ignore.
//
// dst rows need ConvSignSpan(rows, wp) floats, and src must be readable
// up to (ch−1)*plane + 2*wp + 2 + ConvSignSpan(rows, wp).
func ConvSign3x3(path KernelPath, dst []float32, ds int, w, src []float32, ch, plane, wp, rows, f0, f1 int) {
	if f0 >= f1 || rows == 0 {
		return
	}
	span := ConvSignSpan(rows, wp)
	if len(dst) < (f1-1)*ds+span || len(w) < f1*ch*9 || len(src) < (ch-1)*plane+2*wp+2+span {
		panic(fmt.Sprintf("tensor: ConvSign3x3 rows=%d filters=[%d,%d) ch=%d plane=%d wp=%d: slices %d,%d,%d too small",
			rows, f0, f1, ch, plane, wp, len(dst), len(w), len(src)))
	}
	if path == KernelSIMD {
		convSign3x3SIMD(dst, ds, w, src, ch, plane, wp, rows, f0, f1)
		return
	}
	convSign3x3Go(dst, ds, w, src, ch, plane, wp, rows, f0, f1)
}

// convTiling returns how a band is covered by kernel tiles of lanes
// positions: runs stretches of runLen positions, runStride apart. When
// the image width is a multiple of the tile, each row is tiled on its
// own and the two junk positions that end it are never computed;
// otherwise one stretch covers the whole span.
func convTiling(rows, wp, lanes int) (runs, runLen, runStride int) {
	if w := wp - 2; w%lanes == 0 {
		return rows, w, wp
	}
	return 1, ConvSignSpan(rows, wp), 0
}

// convSign3x3Go is the portable kernel: a 4-filter × 4-position register
// tile per sweep over the taps, the six source values of a kernel row
// loaded once for its three taps.
func convSign3x3Go(dst []float32, ds int, w, src []float32, ch, plane, wp, rows, f0, f1 int) {
	k := ch * 9
	runs, runLen, runStride := convTiling(rows, wp, 4)
	f := f0
	for ; f+4 <= f1; f += 4 {
		a0 := w[(f+0)*k : (f+1)*k]
		a1 := w[(f+1)*k : (f+2)*k]
		a2 := w[(f+2)*k : (f+3)*k]
		a3 := w[(f+3)*k : (f+4)*k]
		for r := 0; r < runs; r++ {
			for j := r * runStride; j < r*runStride+runLen; j += 4 {
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				var s20, s21, s22, s23 float32
				var s30, s31, s32, s33 float32
				p := 0
				for c := 0; c < ch; c++ {
					base := c*plane + j
					for ky := 0; ky < 3; ky++ {
						row := src[base : base+6 : base+6]
						b0, b1, b2, b3, b4, b5 := row[0], row[1], row[2], row[3], row[4], row[5]
						s00, s01, s02, s03 = signAcc4(a0[p], s00, s01, s02, s03, b0, b1, b2, b3)
						s10, s11, s12, s13 = signAcc4(a1[p], s10, s11, s12, s13, b0, b1, b2, b3)
						s20, s21, s22, s23 = signAcc4(a2[p], s20, s21, s22, s23, b0, b1, b2, b3)
						s30, s31, s32, s33 = signAcc4(a3[p], s30, s31, s32, s33, b0, b1, b2, b3)
						s00, s01, s02, s03 = signAcc4(a0[p+1], s00, s01, s02, s03, b1, b2, b3, b4)
						s10, s11, s12, s13 = signAcc4(a1[p+1], s10, s11, s12, s13, b1, b2, b3, b4)
						s20, s21, s22, s23 = signAcc4(a2[p+1], s20, s21, s22, s23, b1, b2, b3, b4)
						s30, s31, s32, s33 = signAcc4(a3[p+1], s30, s31, s32, s33, b1, b2, b3, b4)
						s00, s01, s02, s03 = signAcc4(a0[p+2], s00, s01, s02, s03, b2, b3, b4, b5)
						s10, s11, s12, s13 = signAcc4(a1[p+2], s10, s11, s12, s13, b2, b3, b4, b5)
						s20, s21, s22, s23 = signAcc4(a2[p+2], s20, s21, s22, s23, b2, b3, b4, b5)
						s30, s31, s32, s33 = signAcc4(a3[p+2], s30, s31, s32, s33, b2, b3, b4, b5)
						p += 3
						base += wp
					}
				}
				c0 := dst[(f+0)*ds+j : (f+0)*ds+j+4 : (f+0)*ds+j+4]
				c1 := dst[(f+1)*ds+j : (f+1)*ds+j+4 : (f+1)*ds+j+4]
				c2 := dst[(f+2)*ds+j : (f+2)*ds+j+4 : (f+2)*ds+j+4]
				c3 := dst[(f+3)*ds+j : (f+3)*ds+j+4 : (f+3)*ds+j+4]
				c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
				c1[0], c1[1], c1[2], c1[3] = s10, s11, s12, s13
				c2[0], c2[1], c2[2], c2[3] = s20, s21, s22, s23
				c3[0], c3[1], c3[2], c3[3] = s30, s31, s32, s33
			}
		}
	}
	for ; f < f1; f++ {
		a := w[f*k : (f+1)*k]
		for r := 0; r < runs; r++ {
			for j := r * runStride; j < r*runStride+runLen; j += 4 {
				var s0, s1, s2, s3 float32
				p := 0
				for c := 0; c < ch; c++ {
					base := c*plane + j
					for ky := 0; ky < 3; ky++ {
						row := src[base : base+6 : base+6]
						s0, s1, s2, s3 = signAcc4(a[p], s0, s1, s2, s3, row[0], row[1], row[2], row[3])
						s0, s1, s2, s3 = signAcc4(a[p+1], s0, s1, s2, s3, row[1], row[2], row[3], row[4])
						s0, s1, s2, s3 = signAcc4(a[p+2], s0, s1, s2, s3, row[2], row[3], row[4], row[5])
						p += 3
						base += wp
					}
				}
				c := dst[f*ds+j : f*ds+j+4 : f*ds+j+4]
				c[0], c[1], c[2], c[3] = s0, s1, s2, s3
			}
		}
	}
}

// signAcc4 is one tap for one filter over four positions: add where the
// weight is positive, subtract otherwise. For a ±1 weight s ± b is
// exactly Gemm's s + w·b, the product the contract states.
func signAcc4(w, s0, s1, s2, s3, b0, b1, b2, b3 float32) (float32, float32, float32, float32) {
	if w > 0 {
		return s0 + b0, s1 + b1, s2 + b2, s3 + b3
	}
	return s0 - b0, s1 - b1, s2 - b2, s3 - b3
}

// PoolAffineSignRow computes one output row of a 3×3, stride-2, pad-1
// max pool over three input rows and stores the binarized batch-norm
// of each pooled value:
//
//	m      = max over r0, r1, r2 (in that order) of r[2i], r[2i+1], r[2i+2]
//	dst[i] = +1 if scale*m + shift >= 0, else −1
//
// r0, r1 and r2 start at input column −1, so each must hold at least
// 2*len(dst)+1 values; the caller supplies −Inf where the window leaves
// the image (or passes a neighbouring row twice — a duplicate cannot
// change a maximum). The maximum starts at −Inf and a value replaces it
// only when it compares greater, the clipped scan's rule: NaN never
// wins and an all-NaN window pools to −Inf. The affine is evaluated as
// a rounded multiply followed by a rounded add (never fused), which is
// nn.BatchNorm's inference expression.
func PoolAffineSignRow(path KernelPath, dst, r0, r1, r2 []float32, scale, shift float32) {
	pw := len(dst)
	if pw == 0 {
		return
	}
	if need := 2*pw + 1; len(r0) < need || len(r1) < need || len(r2) < need {
		panic(fmt.Sprintf("tensor: PoolAffineSignRow rows %d,%d,%d too short for %d outputs", len(r0), len(r1), len(r2), pw))
	}
	done := 0
	if path == KernelSIMD {
		done = poolAffineSignRowSIMD(dst, r0, r1, r2, scale, shift)
	}
	for i := done; i < pw; i++ {
		m := window3(window3(window3(negInf32, r0[2*i:]), r1[2*i:]), r2[2*i:])
		if float32(scale*m)+shift >= 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
	}
}

// PoolThresholdRows is PoolAffineSignRow's pooling with an integer
// threshold for an epilogue, for the bit-domain ConvP pass (bnn), whose
// convolution outputs are exact integers. It pools p rows of k outputs,
// p·k ≤ 64: pooled row j reads r0, r1 and r2 from j·step on, as
// PoolAffineSignRow reads its rows. Output i of row j is bit j·k+i of
// the result, set when s·m ≥ t for its window maximum m; with s = ±1 and
// t an integer (or ±Inf) the compare is exact.
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
