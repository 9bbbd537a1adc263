package tensor

import "fmt"

// Im2col lowers one sample of an NCHW tensor to the matrix form of its
// convolution: row p = (ci·K + ky)·K + kx of the result holds, for every
// output location (oy, ox), the input value the kernel tap (ci, ky, kx)
// reads there (zero where the tap falls into padding). A convolution then
// reduces to one GEMM: W [outC, inC·K·K] · cols [inC·K·K, oh·ow].
//
// Row order matches the tap-loop convolution's accumulation order
// (channel, then kernel row, then kernel column), so the GEMM sums each
// output element's products in exactly the order the tap loop does.

// Im2colShape returns the [rows, cols] dimensions of the im2col matrix
// for one sample of an [N, C, H, W] input.
func Im2colShape(x *Tensor, kernel, stride, pad int) (rows, cols int) {
	c, h, w := im2colDims(x, kernel, stride, pad)
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	return c * kernel * kernel, oh * ow
}

// Im2colInto lowers sample `sample` of x into dst, which must hold at
// least rows·cols elements (see Im2colShape). Contents beyond the matrix
// are left untouched.
func Im2colInto(dst []float32, x *Tensor, sample, kernel, stride, pad int) {
	c, h, w := im2colDims(x, kernel, stride, pad)
	if sample < 0 || sample >= x.shape[0] {
		panic(fmt.Sprintf("tensor: Im2colInto sample %d out of range for shape %v", sample, x.shape))
	}
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	plane := oh * ow
	if need := c * kernel * kernel * plane; len(dst) < need {
		panic(fmt.Sprintf("tensor: Im2colInto dst has %d elements, need %d", len(dst), need))
	}
	xd := x.data[sample*c*h*w : (sample+1)*c*h*w]
	if pad > 0 {
		// Padding taps leave gaps; clear once instead of per-row.
		clear(dst[:c*kernel*kernel*plane])
	}
	p := 0
	for ci := 0; ci < c; ci++ {
		in := xd[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < kernel; ky++ {
			dy := ky - pad
			for kx := 0; kx < kernel; kx++ {
				dx := kx - pad
				drow := dst[p*plane : (p+1)*plane]
				ox0, ox1 := im2colColRange(ow, w, dx, stride)
				// A tap that samples no column leaves its row zero.
				for oy := 0; ox0 < ox1 && oy < oh; oy++ {
					iy := oy*stride + dy
					if iy < 0 || iy >= h {
						continue
					}
					irow := in[iy*w : (iy+1)*w]
					if stride == 1 {
						copy(drow[oy*ow+ox0:oy*ow+ox1], irow[ox0+dx:ox1+dx])
						continue
					}
					for ox := ox0; ox < ox1; ox++ {
						drow[oy*ow+ox] = irow[ox*stride+dx]
					}
				}
				p++
			}
		}
	}
}

func im2colDims(x *Tensor, kernel, stride, pad int) (c, h, w int) {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: Im2col input shape %v, want [N C H W]", x.shape))
	}
	if kernel < 1 || stride < 1 || pad < 0 {
		panic(fmt.Sprintf("tensor: Im2col kernel=%d stride=%d pad=%d invalid", kernel, stride, pad))
	}
	c, h, w = x.shape[1], x.shape[2], x.shape[3]
	if h+2*pad < kernel || w+2*pad < kernel {
		panic(fmt.Sprintf("tensor: Im2col kernel %d exceeds padded input %d×%d", kernel, h+2*pad, w+2*pad))
	}
	return c, h, w
}

// im2colColRange returns the half-open range of output columns whose
// sampled input column ox·stride+dx lies within [0, w). A tap right of
// the last input column (dx ≥ w, reachable through padding on a narrow
// input) samples none; the division below would round its negative
// bound toward zero.
func im2colColRange(ow, w, dx, stride int) (int, int) {
	ox0 := 0
	if dx < 0 {
		ox0 = (-dx + stride - 1) / stride
	}
	ox1 := ow
	if dx >= w {
		ox1 = 0
	} else if maxOx := (w - 1 - dx) / stride; maxOx+1 < ox1 {
		ox1 = maxOx + 1
	}
	if ox1 < ox0 {
		ox1 = ox0
	}
	return ox0, ox1
}

// Im2colGradInto lowers one sample's convolution output gradient g
// ([outC, oh, ow], where oh·ow is the output of an h×w input) to the
// [outC·K·K, h·w] matrix of the input gradient's GEMM: row
// p = (f·K + ky)·K + kx holds, at input location (iy, ix), the gradient
// g[f][(iy+pad−ky)/stride][(ix+pad−kx)/stride] that tap (ky, kx) of
// filter f carried from there, and zero where that quotient is not an
// integer or falls outside the output. The input gradient of channel ci
// is then W′·rows with W′[ci, p] = W[f, ci, ky, kx], and the GEMM sums
// each input element over (f, ky, kx) ascending — the order in which a
// per-tap scatter loop adds into it. It is Im2colInto with the roles of
// input and output swapped: every row is filled from g by the same
// clipped column runs (contiguous copies at stride 1). dst must hold at
// least outC·K·K·h·w elements; contents beyond that are left untouched.
func Im2colGradInto(dst, g []float32, outC, h, w, kernel, stride, pad int) {
	if kernel < 1 || stride < 1 || pad < 0 || h+2*pad < kernel || w+2*pad < kernel {
		panic(fmt.Sprintf("tensor: Im2colGradInto kernel=%d stride=%d pad=%d invalid for %d×%d", kernel, stride, pad, h, w))
	}
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	plane := h * w
	need := outC * kernel * kernel * plane
	if len(dst) < need || len(g) < outC*oh*ow {
		panic(fmt.Sprintf("tensor: Im2colGradInto dst has %d elements, need %d; g has %d, need %d", len(dst), need, len(g), outC*oh*ow))
	}
	clear(dst[:need])
	p := 0
	for f := 0; f < outC; f++ {
		gf := g[f*oh*ow : (f+1)*oh*ow]
		for ky := 0; ky < kernel; ky++ {
			dy := ky - pad
			for kx := 0; kx < kernel; kx++ {
				dx := kx - pad
				drow := dst[p*plane : (p+1)*plane]
				ox0, ox1 := im2colColRange(ow, w, dx, stride)
				// A tap that samples no column leaves its row zero.
				for oy := 0; ox0 < ox1 && oy < oh; oy++ {
					iy := oy*stride + dy
					if iy < 0 || iy >= h {
						continue
					}
					grow := gf[oy*ow : (oy+1)*ow]
					irow := drow[iy*w : (iy+1)*w]
					if stride == 1 {
						copy(irow[ox0+dx:ox1+dx], grow[ox0:ox1])
						continue
					}
					for ox := ox0; ox < ox1; ox++ {
						irow[ox*stride+dx] = grow[ox]
					}
				}
				p++
			}
		}
	}
}
