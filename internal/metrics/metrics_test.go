package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCommMeter(t *testing.T) {
	m := NewCommMeter()
	m.Add("up", 100)
	m.Add("up", 50)
	m.Add("down", 7)
	if got := m.Get("up"); got != 150 {
		t.Errorf("Get(up) = %d, want 150", got)
	}
	if got := m.Total(); got != 157 {
		t.Errorf("Total = %d, want 157", got)
	}
	cats := m.Categories()
	if len(cats) != 2 || cats[0] != "down" || cats[1] != "up" {
		t.Errorf("Categories = %v, want [down up]", cats)
	}
	m.Reset()
	if m.Total() != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestCommMeterConcurrent(t *testing.T) {
	m := NewCommMeter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Add("x", 1)
			}
		}()
	}
	wg.Wait()
	if got := m.Get("x"); got != 800 {
		t.Errorf("concurrent Add lost updates: %d, want 800", got)
	}
}

func TestLatencyRecorder(t *testing.T) {
	l := NewLatencyRecorder()
	if l.Mean() != 0 || l.Percentile(50) != 0 {
		t.Error("empty recorder must report zero")
	}
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		l.Record(d * time.Millisecond)
	}
	if got := l.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := l.Mean(); got != 30*time.Millisecond {
		t.Errorf("Mean = %v, want 30ms", got)
	}
	if got := l.Percentile(100); got != 50*time.Millisecond {
		t.Errorf("p100 = %v, want 50ms", got)
	}
	if got := l.Percentile(50); got != 30*time.Millisecond {
		t.Errorf("p50 = %v, want 30ms", got)
	}
	if got := l.Percentile(0); got != 10*time.Millisecond {
		t.Errorf("p0 = %v, want 10ms", got)
	}
}
