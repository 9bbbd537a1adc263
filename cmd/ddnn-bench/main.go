// Command ddnn-bench reproduces the DDNN paper's evaluation (§IV) on the
// synthetic multi-view multi-camera dataset and times the compute
// kernels.
//
// Usage:
//
//	ddnn-bench [-exp kernels|repro] [-json FILE]
//
// -exp takes a comma-separated list. -exp repro takes the seeded record
// of the paper's claims at the quick scale — Table I, the threshold
// sweep, Figs. 6 and 8–10, multi-device failure, the mixed-precision and
// edge ablations and the §IV-H communication comparison — and prints
// which of the paper's orderings hold; -json names the file it is
// written to (REPRO.json). -exp kernels times the compute kernels per
// dispatch path and fails when a speedup falls below its floor; -json
// names its report (e.g. BENCH_pr44.json). Serving performance
// (throughput, latency by exit, batching, the collector) is measured by
// the benchmark/ ledger (bash benchmark/run.sh), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/ddnn/ddnn-go/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-bench:", err)
		os.Exit(1)
	}
}

// experimentNames are the valid -exp values.
var experimentNames = []string{"kernels", "repro"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ddnn-bench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "repro", "comma-separated experiments: "+strings.Join(experimentNames, ", "))
		jsonOut = fs.String("json", "", "write the kernels experiment's results (e.g. BENCH_pr44.json) or the repro record (REPRO.json) to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	wanted := strings.Split(*exp, ",")
	for _, w := range wanted {
		if !slices.Contains(experimentNames, w) {
			return fmt.Errorf("unknown experiment %q (valid: %s)", w, strings.Join(experimentNames, ", "))
		}
	}
	if slices.Contains(wanted, "kernels") && slices.Contains(wanted, "repro") && *jsonOut != "" {
		return fmt.Errorf("-json takes one of kernels and repro, not both")
	}

	start := time.Now()
	// The kernels experiment needs no dataset or training; run it first.
	if slices.Contains(wanted, "kernels") {
		fmt.Fprintln(out, "== Compute kernels: naive vs optimized (per-sample, 1 worker) ==")
		if err := runKernels(out, *jsonOut); err != nil {
			return err
		}
	}
	if slices.Contains(wanted, "repro") {
		if err := runRepro(out, *jsonOut); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "total wall clock: %v\n", time.Since(start).Round(time.Second))
	return nil
}

// runRepro records the paper's claims at QuickOptions and prints the
// orderings; jsonPath, when set, receives the record.
func runRepro(out io.Writer, jsonPath string) error {
	fmt.Fprintln(out, "== Repro record: the paper's claims at the quick scale ==")
	runner, err := experiments.NewRunner(experiments.QuickOptions())
	if err != nil {
		return err
	}
	rep, err := runner.Repro()
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.FormatOrderings(rep.Orderings()))
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(buf, '\n'), 0o644)
}
