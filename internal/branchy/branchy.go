// Package branchy implements the BranchyNet substrate the DDNN builds on
// (Teerapittayanon et al., ICPR 2016): early-exit decision policies based
// on the normalized entropy of an exit's class-probability vector, and
// the threshold sweep utilities used to produce the paper's Table II and
// Fig. 7.
package branchy

import (
	"sort"

	"github.com/ddnn/ddnn-go/internal/nn"
)

// Policy holds one entropy threshold per exit point, ordered from the
// lowest exit (device/local) to the final exit (cloud). The final exit
// always classifies, so its threshold is irrelevant and conventionally 1.
type Policy struct {
	Thresholds []float64
}

// NewPolicy builds a policy from per-exit thresholds.
func NewPolicy(thresholds ...float64) Policy {
	return Policy{Thresholds: thresholds}
}

// ShouldExit reports whether a sample with probability vector probs may
// exit at exit point i: the normalized entropy must not exceed the exit's
// threshold (η ≤ T means confident, §III-D). The last exit always accepts.
func (p Policy) ShouldExit(i int, probs []float32) bool {
	if i >= len(p.Thresholds)-1 {
		return true
	}
	return nn.NormalizedEntropy(probs) <= p.Thresholds[i]
}

// ExitOutcome records, for one validation sample, the confidence at a
// lower exit and the correctness of both that exit and the exit above it.
// It is the raw material for threshold search.
type ExitOutcome struct {
	// Entropy is the normalized entropy of the lower exit's probability
	// vector.
	Entropy float64
	// LocalCorrect reports whether the lower exit classifies the sample
	// correctly.
	LocalCorrect bool
	// UpperCorrect reports whether the exit above classifies the sample
	// correctly when it is forwarded.
	UpperCorrect bool
}

// SweepPoint is one row of the paper's Table II: a threshold, the fraction
// of samples exiting at the lower exit, and the resulting overall accuracy.
type SweepPoint struct {
	Threshold float64
	ExitFrac  float64
	Accuracy  float64
}

// Sweep evaluates the exit policy at each threshold in grid, returning one
// SweepPoint per threshold. A sample exits locally when its entropy does
// not exceed T; otherwise the upper exit classifies it.
func Sweep(outcomes []ExitOutcome, grid []float64) []SweepPoint {
	points := make([]SweepPoint, 0, len(grid))
	for _, t := range grid {
		exited, correct := 0, 0
		for _, o := range outcomes {
			if o.Entropy <= t {
				exited++
				if o.LocalCorrect {
					correct++
				}
			} else if o.UpperCorrect {
				correct++
			}
		}
		n := len(outcomes)
		points = append(points, SweepPoint{
			Threshold: t,
			ExitFrac:  float64(exited) / float64(n),
			Accuracy:  float64(correct) / float64(n),
		})
	}
	return points
}

// ThresholdForExitFraction returns the smallest threshold from grid whose
// local-exit fraction is at least frac. Fig. 9 configures T so that ≈75% of
// samples exit locally; this helper performs that calibration. If no
// threshold reaches frac the largest is returned.
func ThresholdForExitFraction(outcomes []ExitOutcome, grid []float64, frac float64) SweepPoint {
	points := Sweep(outcomes, grid)
	sort.Slice(points, func(i, j int) bool { return points[i].Threshold < points[j].Threshold })
	for _, p := range points {
		if p.ExitFrac >= frac {
			return p
		}
	}
	return points[len(points)-1]
}

// Grid returns an evenly spaced threshold grid over [0, 1] with n+1 points.
func Grid(n int) []float64 {
	g := make([]float64, n+1)
	for i := range g {
		g[i] = float64(i) / float64(n)
	}
	return g
}
