package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestCompare(t *testing.T) {
	rows := []row{
		{Workload: "w", Metric: "wire_bytes_per_class", Value: 1764.8125},
		{Workload: "w", Metric: "allocs_per_class", Value: 100, Tolerance: 0.02},
	}
	for _, tc := range []struct {
		name  string
		got   map[string]float64
		fails int
	}{
		{"exact and inside", map[string]float64{"w wire_bytes_per_class": 1764.8125, "w allocs_per_class": 101.9}, 0},
		{"exact row moved", map[string]float64{"w wire_bytes_per_class": 1764.8126, "w allocs_per_class": 100}, 1},
		{"past tolerance", map[string]float64{"w wire_bytes_per_class": 1764.8125, "w allocs_per_class": 97.9}, 1},
		{"not measured", map[string]float64{"w allocs_per_class": 100}, 1},
	} {
		if got := compare(rows, tc.got); len(got) != tc.fails {
			t.Errorf("%s: findings %q, want %d", tc.name, got, tc.fails)
		}
	}
}

// TestLedgerFile: the committed ledger is in format's layout, parses, every row names a metric
// the benchmark reports, and every tolerance is a share in [0, 1).
func TestLedgerFile(t *testing.T) {
	data, err := os.ReadFile("ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatal(err)
	}
	if format(l) != string(data) {
		t.Error("ledger.json is not in format's one-row-per-line layout")
	}
	if l.Seconds <= 0 || len(l.Rows) == 0 {
		t.Fatalf("ledger has %v s runs and %d rows", l.Seconds, len(l.Rows))
	}
	known := map[string]bool{
		"wire_bytes_per_class": true, "allocs_per_class": true,
		"transport.frames_per_class": true, "transport.rtts_per_session": true,
	}
	for _, r := range l.Rows {
		if !known[r.Metric] || r.Tolerance < 0 || r.Tolerance >= 1 || r.Value <= 0 {
			t.Errorf("bad row %+v", r)
		}
	}
}
