// Package promtext is a minimal, dependency-free metrics registry that
// renders the Prometheus text exposition format (version 0.0.4). It
// implements exactly the instrument kinds the serving front door needs —
// counters split by one label, and gauges and histograms optionally split
// by one — so
// /metrics can be scraped by any Prometheus-compatible collector without
// pulling a client library into a stdlib-only module.
//
// All instruments are safe for concurrent use: counters and gauges are
// single atomics, histograms take a short mutex per observation, and
// labelled families guard their child maps with an RWMutex. Collection
// (Render) never blocks writers for longer than one instrument's
// snapshot.
package promtext

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is anything the registry can render.
type metric interface {
	// name returns the family name, for HELP/TYPE headers and ordering.
	name() string
	// write renders the family (HELP, TYPE, then every sample).
	write(w io.Writer) error
}

// Registry holds a set of metric families and renders them in the text
// exposition format. Register instruments once at startup; families
// render sorted by name so scrapes are deterministic.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register adds a family, panicking on a duplicate name: instrument
// registration is startup-time wiring, and a silent overwrite would
// split one family's samples across two instruments.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name()]; dup {
		panic(fmt.Sprintf("promtext: duplicate metric %q", m.name()))
	}
	r.metrics[m.name()] = m
}

// Render writes every registered family, sorted by name, in the
// Prometheus text exposition format 0.0.4.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	families := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		families = append(families, m)
	}
	r.mu.Unlock()
	sort.Slice(families, func(i, j int) bool { return families[i].name() < families[j].name() })
	for _, m := range families {
		if err := m.write(w); err != nil {
			return err
		}
	}
	return nil
}

// ContentType is the Content-Type header value for the rendered output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// writeHeader emits the HELP and TYPE lines for a family.
func writeHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
	return err
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects
// (shortest repr; +Inf/-Inf/NaN spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// ---------------------------------------------------------------------------
// CounterVec

// CounterVec is a counter family split by one label. Children are
// created on first use and live for the registry's lifetime.
type CounterVec struct {
	fname string
	help  string
	label string

	mu       sync.RWMutex
	children map[string]*atomic.Uint64
}

// NewCounterVec registers a counter family keyed by one label.
func NewCounterVec(r *Registry, name, help, label string) *CounterVec {
	c := &CounterVec{fname: name, help: help, label: label, children: make(map[string]*atomic.Uint64)}
	r.register(c)
	return c
}

// child returns (creating if needed) the counter for a label value.
func (c *CounterVec) child(value string) *atomic.Uint64 {
	c.mu.RLock()
	v := c.children[value]
	c.mu.RUnlock()
	if v != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v = c.children[value]; v == nil {
		v = new(atomic.Uint64)
		c.children[value] = v
	}
	return v
}

// Inc adds one to the label value's sample.
func (c *CounterVec) Inc(value string) { c.child(value).Add(1) }

// Add adds n to the label value's sample.
func (c *CounterVec) Add(value string, n uint64) { c.child(value).Add(n) }

// Value returns the label value's current count (0 if never touched).
func (c *CounterVec) Value(value string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v := c.children[value]; v != nil {
		return v.Load()
	}
	return 0
}

func (c *CounterVec) name() string { return c.fname }

func (c *CounterVec) write(w io.Writer) error {
	if err := writeHeader(w, c.fname, c.help, "counter"); err != nil {
		return err
	}
	c.mu.RLock()
	values := make([]string, 0, len(c.children))
	for v := range c.children {
		values = append(values, v)
	}
	c.mu.RUnlock()
	sort.Strings(values)
	for _, v := range values {
		c.mu.RLock()
		n := c.children[v].Load()
		c.mu.RUnlock()
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", c.fname, c.label, escapeLabel(v), n); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a value that can go up and down.
type Gauge struct {
	fname string
	help  string
	v     atomic.Int64
}

// NewGauge registers a gauge family with a single unlabelled sample.
func NewGauge(r *Registry, name, help string) *Gauge {
	g := &Gauge{fname: name, help: help}
	r.register(g)
	return g
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) name() string { return g.fname }

func (g *Gauge) write(w io.Writer) error {
	if err := writeHeader(w, g.fname, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", g.fname, g.v.Load())
	return err
}

// ---------------------------------------------------------------------------
// GaugeFunc

// GaugeFunc is a gauge sampled at scrape time from a callback — for
// values something else already tracks (pool health, queue depths).
type GaugeFunc struct {
	fname string
	help  string
	fn    func() float64
}

// NewGaugeFunc registers a callback-backed gauge. fn is called once per
// scrape and must be safe for concurrent use.
func NewGaugeFunc(r *Registry, name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{fname: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) name() string { return g.fname }

func (g *GaugeFunc) write(w io.Writer) error {
	if err := writeHeader(w, g.fname, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.fname, formatFloat(g.fn()))
	return err
}

// ---------------------------------------------------------------------------
// Histogram

// DefBuckets are latency-oriented default buckets (seconds), spanning
// 100µs to ~10s — the range between a device-only exit on loopback and a
// timed-out WAN escalation.
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// histogramData is one child's buckets, count and sum.
type histogramData struct {
	mu     sync.Mutex
	counts []uint64 // one per bucket bound; +Inf is implicit via total
	total  uint64
	sum    float64
	uppers []float64
}

func newHistogramData(uppers []float64) *histogramData {
	return &histogramData{counts: make([]uint64, len(uppers)), uppers: uppers}
}

// observe records one value.
func (h *histogramData) observe(v float64) {
	h.mu.Lock()
	for i, upper := range h.uppers {
		if v <= upper {
			h.counts[i]++
		}
	}
	h.total++
	h.sum += v
	h.mu.Unlock()
}

// snapshot copies the child under its lock.
func (h *histogramData) snapshot() (counts []uint64, total uint64, sum float64) {
	h.mu.Lock()
	counts = append([]uint64(nil), h.counts...)
	total, sum = h.total, h.sum
	h.mu.Unlock()
	return counts, total, sum
}

// writeSamples renders one child's bucket/sum/count lines. extraLabel is
// a pre-rendered `name="value",` fragment (empty for unlabelled).
func (h *histogramData) writeSamples(w io.Writer, fname, extraLabel string) error {
	counts, total, sum := h.snapshot()
	for i, upper := range h.uppers {
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", fname, extraLabel, formatFloat(upper), counts[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", fname, extraLabel, total); err != nil {
		return err
	}
	// _sum and _count carry the child's label set without the le label;
	// unlabelled children render bare names, not empty brace pairs.
	suffix := ""
	if extraLabel != "" {
		suffix = "{" + strings.TrimSuffix(extraLabel, ",") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fname, suffix, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fname, suffix, total)
	return err
}

// Histogram observes a distribution into cumulative buckets.
type Histogram struct {
	fname string
	help  string
	data  *histogramData
}

// NewHistogram registers an unlabelled histogram. nil buckets means
// DefBuckets. Bucket bounds must be sorted ascending.
func NewHistogram(r *Registry, name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := &Histogram{fname: name, help: help, data: newHistogramData(buckets)}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.data.observe(v) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	_, total, _ := h.data.snapshot()
	return total
}

func (h *Histogram) name() string { return h.fname }

func (h *Histogram) write(w io.Writer) error {
	if err := writeHeader(w, h.fname, h.help, "histogram"); err != nil {
		return err
	}
	return h.data.writeSamples(w, h.fname, "")
}

// ---------------------------------------------------------------------------
// HistogramVec

// HistogramVec is a histogram family split by one label.
type HistogramVec struct {
	fname   string
	help    string
	label   string
	buckets []float64

	mu       sync.RWMutex
	children map[string]*histogramData
}

// NewHistogramVec registers a histogram family keyed by one label. nil
// buckets means DefBuckets.
func NewHistogramVec(r *Registry, name, help, label string, buckets []float64) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := &HistogramVec{fname: name, help: help, label: label, buckets: buckets, children: make(map[string]*histogramData)}
	r.register(h)
	return h
}

// Observe records one value under a label value.
func (h *HistogramVec) Observe(value string, v float64) {
	h.mu.RLock()
	d := h.children[value]
	h.mu.RUnlock()
	if d == nil {
		h.mu.Lock()
		if d = h.children[value]; d == nil {
			d = newHistogramData(h.buckets)
			h.children[value] = d
		}
		h.mu.Unlock()
	}
	d.observe(v)
}

// Count returns the label value's observation count (0 if never touched).
func (h *HistogramVec) Count(value string) uint64 {
	h.mu.RLock()
	d := h.children[value]
	h.mu.RUnlock()
	if d == nil {
		return 0
	}
	_, total, _ := d.snapshot()
	return total
}

func (h *HistogramVec) name() string { return h.fname }

func (h *HistogramVec) write(w io.Writer) error {
	if err := writeHeader(w, h.fname, h.help, "histogram"); err != nil {
		return err
	}
	h.mu.RLock()
	values := make([]string, 0, len(h.children))
	for v := range h.children {
		values = append(values, v)
	}
	h.mu.RUnlock()
	sort.Strings(values)
	for _, v := range values {
		h.mu.RLock()
		d := h.children[v]
		h.mu.RUnlock()
		extra := fmt.Sprintf("%s=\"%s\",", h.label, escapeLabel(v))
		if err := d.writeSamples(w, h.fname, extra); err != nil {
			return err
		}
	}
	return nil
}
