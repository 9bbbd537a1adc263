package nn

import (
	"fmt"
	"math"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Softmax converts a [N, C] logit matrix to row-wise probabilities using
// the numerically stable max-shift formulation.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("nn: Softmax input %v, want [N C]", logits.Shape()))
	}
	out := tensor.New(logits.Dim(0), logits.Dim(1))
	SoftmaxInto(out.Data(), logits)
	return out
}

// SoftmaxInto is Softmax writing the probabilities into dst, row-major
// with the logits' layout, instead of a new tensor.
func SoftmaxInto(dst []float32, logits *tensor.Tensor) {
	if logits.Dims() != 2 || len(dst) != logits.Size() {
		panic(fmt.Sprintf("nn: SoftmaxInto input %v into %d values, want [N C] into N·C", logits.Shape(), len(dst)))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	for i := 0; i < n; i++ {
		src, out := logits.Row(i), dst[i*c:(i+1)*c]
		maxv := src[0]
		for _, v := range src[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range src {
			e := math.Exp(float64(v - maxv))
			out[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
}

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss over a
// batch of logits [N, C] with integer class labels, and the gradient of the
// loss with respect to the logits. weight scales both loss and gradient and
// implements the per-exit weights w_n of the paper's joint objective
// (equal weights, i.e. 1, in all paper experiments).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int, weight float32) (loss float64, grad *tensor.Tensor) {
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy got %d labels for batch of %d", len(labels), n))
	}
	probs := Softmax(logits)
	grad = tensor.New(n, c)
	invN := float32(1) / float32(n)
	for i := 0; i < n; i++ {
		lbl := labels[i]
		if lbl < 0 || lbl >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", lbl, c))
		}
		p := probs.Row(i)
		g := grad.Row(i)
		loss += -math.Log(math.Max(float64(p[lbl]), 1e-12))
		for j := range g {
			g[j] = p[j] * invN * weight
		}
		g[lbl] -= invN * weight
	}
	loss = loss / float64(n) * float64(weight)
	return loss, grad
}

// NormalizedEntropy computes the paper's confidence criterion
// η(x) = −Σᵢ xᵢ·log xᵢ / log|C| for a probability vector x. The result is
// in [0, 1]: values near 0 mean the prediction is confident, values near 1
// mean it is not (§III-D). It is clamped to 1, which a uniform vector's
// rounded float32 entries would otherwise overshoot by a few ulps, so a
// threshold of 1 always exits.
func NormalizedEntropy(probs []float32) float64 {
	if len(probs) < 2 {
		return 0
	}
	var h float64
	for _, p := range probs {
		if p > 0 {
			h -= float64(p) * math.Log(float64(p))
		}
	}
	return min(h/math.Log(float64(len(probs))), 1)
}
