package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile for it
// to be reported without a warning (1 000 samples for a p99): with
// fewer, the value is set by a handful of outliers and moves from run
// to run.
const tailSamples = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice and the number of samples strictly beyond it. An
// empty slice yields (0, 0).
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// median is the p50 of an unsorted sample.
func median(vs []float64) float64 { return pctOf(vs, 0.5) }

// pctOf sorts a copy of vs and returns its q-quantile.
func pctOf(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	v, _ := percentile(s, q)
	return v
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
