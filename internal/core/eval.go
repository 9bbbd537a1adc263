package core

import (
	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// EvalResult stores the per-sample exit probabilities of a DDNN over a
// dataset, from which every accuracy measure of §III-F can be derived
// without re-running the network.
type EvalResult struct {
	Labels     []int
	LocalProbs [][]float32
	EdgeProbs  [][]float32 // nil without an edge tier
	CloudProbs [][]float32
}

// Evaluate runs the DDNN over the dataset in batches and collects exit
// probabilities. mask marks present devices (nil = all present), enabling
// the fault-tolerance experiments of §IV-G.
func (m *Model) Evaluate(ds *dataset.Dataset, mask []bool, batchSize int) *EvalResult {
	if batchSize <= 0 {
		batchSize = 32
	}
	res := &EvalResult{Labels: ds.Labels(nil)}
	n := ds.Len()
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		xs := ds.AllDeviceBatches(m.Cfg.Devices, idx)
		logits := m.Infer(xs, mask)
		res.LocalProbs = append(res.LocalProbs, probRows(logits.Local)...)
		if logits.Edge != nil {
			res.EdgeProbs = append(res.EdgeProbs, probRows(logits.Edge)...)
		}
		res.CloudProbs = append(res.CloudProbs, probRows(logits.Cloud)...)
	}
	return res
}

func probRows(logits *tensor.Tensor) [][]float32 {
	probs := nn.Softmax(logits)
	rows := make([][]float32, probs.Dim(0))
	for i := range rows {
		row := make([]float32, probs.Dim(1))
		copy(row, probs.Row(i))
		rows[i] = row
	}
	return rows
}

// Argmax returns the index of the row's largest value, the first on a
// tie: the class a probability (or logit) row predicts.
func Argmax(row []float32) int {
	best := 0
	for i := 1; i < len(row); i++ {
		if row[i] > row[best] {
			best = i
		}
	}
	return best
}

func accuracyOf(probs [][]float32, labels []int) float64 {
	correct := 0
	for i, row := range probs {
		if Argmax(row) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// LocalAccuracy is the accuracy when exiting 100% of samples at the local
// exit (§III-F).
func (r *EvalResult) LocalAccuracy() float64 { return accuracyOf(r.LocalProbs, r.Labels) }

// EdgeAccuracy is the accuracy when exiting 100% of samples at the edge
// exit; it is 0 when the model has no edge tier.
func (r *EvalResult) EdgeAccuracy() float64 {
	if r.EdgeProbs == nil {
		return 0
	}
	return accuracyOf(r.EdgeProbs, r.Labels)
}

// CloudAccuracy is the accuracy when exiting 100% of samples at the cloud
// exit (§III-F).
func (r *EvalResult) CloudAccuracy() float64 { return accuracyOf(r.CloudProbs, r.Labels) }

// OverallAccuracy is the accuracy of staged inference under the exit
// policy: each sample exits at the first exit whose normalized entropy is
// within that exit's threshold, and the final exit always classifies
// (§III-D, §III-F).
func (r *EvalResult) OverallAccuracy(policy branchy.Policy) float64 {
	correct := 0
	for i := range r.Labels {
		if _, probs := r.Exit(policy, i); Argmax(probs) == r.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(r.Labels))
}

// Exit replays staged inference for sample i under the policy: the first
// exit whose normalized entropy is within its threshold classifies, and
// the final exit always does. It returns that exit's index (0 local,
// then edge when present, then cloud) and its probability vector.
func (r *EvalResult) Exit(policy branchy.Policy, i int) (exit int, probs []float32) {
	exits := [][]float32{r.LocalProbs[i]}
	if r.EdgeProbs != nil {
		exits = append(exits, r.EdgeProbs[i])
	}
	exits = append(exits, r.CloudProbs[i])
	for e, probs := range exits {
		if policy.ShouldExit(e, probs) {
			return e, probs
		}
	}
	return len(exits) - 1, exits[len(exits)-1]
}

// ExitFractions returns the fraction of samples classified at each exit
// point under the policy, ordered local (edge) cloud.
func (r *EvalResult) ExitFractions(policy branchy.Policy) []float64 {
	exits := 2
	if r.EdgeProbs != nil {
		exits = 3
	}
	counts := make([]int, exits)
	for i := range r.Labels {
		e, _ := r.Exit(policy, i)
		counts[e]++
	}
	fr := make([]float64, exits)
	for i, c := range counts {
		fr[i] = float64(c) / float64(len(r.Labels))
	}
	return fr
}

// LocalExitFraction is the fraction of samples exiting at the local exit
// under the policy — the l of Eq. (1).
func (r *EvalResult) LocalExitFraction(policy branchy.Policy) float64 {
	return r.ExitFractions(policy)[0]
}

// Outcomes converts the evaluation into branchy.ExitOutcome records for
// threshold search over the local exit. The upper exit is the edge when
// present, otherwise the cloud.
func (r *EvalResult) Outcomes() []branchy.ExitOutcome {
	upper := r.CloudProbs
	if r.EdgeProbs != nil {
		upper = r.EdgeProbs
	}
	out := make([]branchy.ExitOutcome, len(r.Labels))
	for i, lbl := range r.Labels {
		out[i] = branchy.ExitOutcome{
			Entropy:      nn.NormalizedEntropy(r.LocalProbs[i]),
			LocalCorrect: Argmax(r.LocalProbs[i]) == lbl,
			UpperCorrect: Argmax(upper[i]) == lbl,
		}
	}
	return out
}
