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
				for oy := 0; oy < oh; oy++ {
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
// sampled input column ox·stride+dx lies within [0, w).
func im2colColRange(ow, w, dx, stride int) (int, int) {
	ox0 := 0
	if dx < 0 {
		ox0 = (-dx + stride - 1) / stride
	}
	ox1 := ow
	if maxOx := (w - 1 - dx) / stride; maxOx+1 < ox1 {
		ox1 = maxOx + 1
	}
	if ox1 < ox0 {
		ox1 = ox0
	}
	return ox0, ox1
}
