package promtext

import (
	"strings"
	"sync"
	"testing"
)

// render collects the registry's exposition output as a string.
func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	return sb.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := NewCounterVec(r, "ddnn_requests_total", "Total requests.", "code")
	c.Inc("200")
	c.Add("200", 2)
	out := render(t, r)
	for _, want := range []string{
		"# HELP ddnn_requests_total Total requests.\n",
		"# TYPE ddnn_requests_total counter\n",
		`ddnn_requests_total{code="200"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if c.Value("200") != 3 {
		t.Errorf("Value() = %d, want 3", c.Value("200"))
	}
}

func TestCounterVecSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	c := NewCounterVec(r, "ddnn_client_requests_total", "Per-client requests.", "client")
	c.Inc("zeta")
	c.Add("alpha", 5)
	c.Inc(`qu"ote`)
	out := render(t, r)
	alpha := strings.Index(out, `client="alpha"`)
	zeta := strings.Index(out, `client="zeta"`)
	if alpha == -1 || zeta == -1 || alpha > zeta {
		t.Errorf("label values not sorted:\n%s", out)
	}
	if !strings.Contains(out, `ddnn_client_requests_total{client="qu\"ote"} 1`) {
		t.Errorf("quote not escaped:\n%s", out)
	}
	if c.Value("alpha") != 5 || c.Value("missing") != 0 {
		t.Errorf("Value() = %d/%d, want 5/0", c.Value("alpha"), c.Value("missing"))
	}
}

func TestGaugeUpDown(t *testing.T) {
	r := NewRegistry()
	g := NewGauge(r, "ddnn_inflight", "In-flight requests.")
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("Value() = %d, want 1", g.Value())
	}
	g.Set(-7)
	out := render(t, r)
	if !strings.Contains(out, "# TYPE ddnn_inflight gauge\n") || !strings.Contains(out, "ddnn_inflight -7\n") {
		t.Errorf("unexpected gauge output:\n%s", out)
	}
}

func TestGaugeFuncSampledAtScrape(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	NewGaugeFunc(r, "ddnn_pool_healthy", "Healthy replicas.", func() float64 { return v })
	if out := render(t, r); !strings.Contains(out, "ddnn_pool_healthy 1.5\n") {
		t.Errorf("first scrape:\n%s", out)
	}
	v = 3
	if out := render(t, r); !strings.Contains(out, "ddnn_pool_healthy 3\n") {
		t.Errorf("second scrape:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(r, "ddnn_latency_seconds", "Request latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		"# TYPE ddnn_latency_seconds histogram\n",
		`ddnn_latency_seconds_bucket{le="0.1"} 1` + "\n",
		`ddnn_latency_seconds_bucket{le="1"} 3` + "\n",
		`ddnn_latency_seconds_bucket{le="10"} 4` + "\n",
		`ddnn_latency_seconds_bucket{le="+Inf"} 5` + "\n",
		"ddnn_latency_seconds_sum 56.05\n",
		"ddnn_latency_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count() = %d, want 5", h.Count())
	}
}

func TestHistogramVecPerLabelSamples(t *testing.T) {
	r := NewRegistry()
	h := NewHistogramVec(r, "ddnn_stage_seconds", "Per-tier latency.", "tier", []float64{1})
	h.Observe("device", 0.5)
	h.Observe("device", 2)
	h.Observe("cloud", 0.25)
	out := render(t, r)
	for _, want := range []string{
		`ddnn_stage_seconds_bucket{tier="device",le="1"} 1` + "\n",
		`ddnn_stage_seconds_bucket{tier="device",le="+Inf"} 2` + "\n",
		`ddnn_stage_seconds_count{tier="device"} 2` + "\n",
		`ddnn_stage_seconds_bucket{tier="cloud",le="1"} 1` + "\n",
		`ddnn_stage_seconds_sum{tier="cloud"} 0.25` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.Count("device") != 2 || h.Count("gone") != 0 {
		t.Errorf("Count() = %d/%d, want 2/0", h.Count("device"), h.Count("gone"))
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	NewCounterVec(r, "zzz_total", "Last.", "l")
	NewGauge(r, "aaa_current", "First.")
	out := render(t, r)
	if a, z := strings.Index(out, "aaa_current"), strings.Index(out, "zzz_total"); a == -1 || z == -1 || a > z {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	NewCounterVec(r, "dup_total", "One.", "l")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounterVec(r, "dup_total", "Two.", "l")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	cv := NewCounterVec(r, "conc_by_client_total", "Concurrent vec.", "client")
	h := NewHistogramVec(r, "conc_seconds", "Concurrent histogram.", "tier", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := string(rune('a' + i%3))
			for j := 0; j < 500; j++ {
				cv.Inc(client)
				h.Observe(client, float64(j)/1000)
				if j%100 == 0 {
					var sb strings.Builder
					_ = r.Render(&sb)
				}
			}
		}(i)
	}
	wg.Wait()
	total := cv.Value("a") + cv.Value("b") + cv.Value("c")
	if total != 8*500 {
		t.Errorf("vec total = %d, want %d", total, 8*500)
	}
}
