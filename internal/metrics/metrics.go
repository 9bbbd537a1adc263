// Package metrics provides two measurement utilities: a
// communication-byte meter by category, which the cluster nodes keep and
// the experiment harness sets against the analytic model of Eq. (1), and
// a latency recorder with order statistics for the command-line drivers
// and examples.
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"
)

// CommMeter accumulates communication bytes by category. It is safe for
// concurrent use, so cluster nodes can share one meter.
type CommMeter struct {
	mu     sync.Mutex
	counts map[string]int64
}

// NewCommMeter builds an empty meter.
func NewCommMeter() *CommMeter {
	return &CommMeter{counts: make(map[string]int64)}
}

// Add records n bytes in a category (e.g. "local-summary", "cloud-upload").
func (m *CommMeter) Add(category string, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[category] += n
}

// Get returns the bytes recorded for a category.
func (m *CommMeter) Get(category string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[category]
}

// Total returns the bytes recorded across all categories.
func (m *CommMeter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t int64
	for _, v := range m.counts {
		t += v
	}
	return t
}

// Categories returns the category names in sorted order.
func (m *CommMeter) Categories() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.counts))
	for k := range m.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reset clears all counters.
func (m *CommMeter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts = make(map[string]int64)
}

// LatencyRecorder collects durations and reports order statistics. It is
// safe for concurrent use.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewLatencyRecorder builds an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Record adds one duration sample.
func (l *LatencyRecorder) Record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples = append(l.samples, d)
}

// Count returns the number of samples recorded.
func (l *LatencyRecorder) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// Mean returns the mean latency, or 0 with no samples.
func (l *LatencyRecorder) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l.samples {
		sum += d
	}
	return sum / time.Duration(len(l.samples))
}

// Percentile returns the p-th percentile latency (p in [0,100]), or 0 with
// no samples.
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(l.samples))
	copy(sorted, l.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
