package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunRejectsUnknownExperiment: an -exp value outside the valid set —
// a typo, or one of the serving experiments the benchmark/ ledger
// replaced — must fail before any training starts and name the valid
// experiments, instead of matching nothing and exiting 0.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"tabel1", "serve", "latency", "replicas", "table1,serve"} {
		t.Run(exp, func(t *testing.T) {
			err := run([]string{"-exp", exp}, io.Discard)
			if err == nil {
				t.Fatalf("run(-exp %s) = nil, want an unknown-experiment error", exp)
			}
			for _, valid := range experimentNames {
				if !strings.Contains(err.Error(), valid) {
					t.Errorf("error %q does not list valid experiment %q", err, valid)
				}
			}
		})
	}
}
