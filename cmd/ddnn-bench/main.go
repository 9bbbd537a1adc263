// Command ddnn-bench regenerates the tables and figures of the DDNN
// paper's evaluation (§IV) on the synthetic multi-view multi-camera
// dataset. Each experiment prints the same rows/series the paper reports.
//
// Usage:
//
//	ddnn-bench [-exp all|table1|table2|fig6|fig7|fig8|fig9|fig10|comm|multifail|mixed|edge|kernels|repro]
//	           [-epochs N] [-individual-epochs N] [-quick] [-json FILE] [-v]
//
// -exp takes a comma-separated list; "all" runs every experiment but
// kernels and repro. -exp repro writes the seeded record of the paper's
// claims at the quick scale (REPRO.json; -json names the file) and
// prints which of the paper's orderings hold. Serving performance (throughput,
// latency by exit, batching, the collector) is measured by the
// benchmark/ ledger (bash benchmark/run.sh), not here.
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

	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-bench:", err)
		os.Exit(1)
	}
}

// experimentNames are the valid -exp values.
var experimentNames = []string{"all", "table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "comm", "multifail", "mixed", "edge", "kernels", "repro"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ddnn-bench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames, ", "))
		epochs    = fs.Int("epochs", 0, "override DDNN training epochs (default 50, paper uses 100)")
		indEpochs = fs.Int("individual-epochs", 0, "override individual-model training epochs")
		quick     = fs.Bool("quick", false, "reduced dataset and epochs for a fast smoke run")
		jsonOut   = fs.String("json", "", "write the kernels experiment's results (e.g. BENCH_pr42.json) or the repro record (REPRO.json) to this JSON file")
		verbose   = fs.Bool("v", false, "log training progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *epochs > 0 {
		opts.Epochs = *epochs
	}
	if *indEpochs > 0 {
		opts.IndividualEpochs = *indEpochs
	}
	if *verbose {
		opts.Verbose = os.Stderr
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
	want := func(name string) bool {
		for _, w := range wanted {
			if w == name || (w == "all" && name != "repro") {
				return true
			}
		}
		return false
	}

	start := time.Now()

	// The kernels experiment needs no dataset or training; run it first
	// so `-exp kernels` stays a seconds-long smoke (the CI regression
	// gate for the rewritten compute core).
	if want("kernels") {
		fmt.Fprintln(out, "== Compute kernels: naive vs optimized (per-sample, 1 worker) ==")
		if err := runKernels(out, *jsonOut); err != nil {
			return err
		}
	}
	if want("repro") {
		// The record is always taken at the quick scale and the default
		// seed, whatever the other flags say, so REPRO.json has one
		// meaning.
		if err := runRepro(out, *jsonOut); err != nil {
			return err
		}
	}
	if !slices.ContainsFunc(wanted, func(w string) bool { return w != "kernels" && w != "repro" }) {
		fmt.Fprintf(out, "total wall clock: %v\n", time.Since(start).Round(time.Second))
		return nil
	}

	runner, err := experiments.NewRunner(opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "DDNN evaluation harness (epochs=%d, individual=%d, train=%d, test=%d)\n\n",
		opts.Epochs, opts.IndividualEpochs, opts.Data.Train, opts.Data.Test)

	if want("fig6") {
		fmt.Fprintln(out, "== Fig. 6: per-device class distribution ==")
		fmt.Fprintln(out, experiments.FormatClassDistribution(runner.ClassDistribution()))
	}
	if want("table1") {
		fmt.Fprintln(out, "== Table I: aggregation schemes ==")
		rows, err := runner.TableI()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatTableI(rows))
	}
	if want("table2") {
		fmt.Fprintln(out, "== Table II: exit-threshold settings ==")
		rows, err := runner.ThresholdSweep([]float64{0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatTableII(rows))
		best := experiments.BestThreshold(rows)
		fmt.Fprintf(out, "best threshold: T=%.1f (overall %.1f%%, %.1f%% local exits, %.0f B)\n\n",
			best.T, best.OverallAcc, best.LocalExitPct, best.CommBytes)
	}
	if want("fig7") {
		fmt.Fprintln(out, "== Fig. 7: overall accuracy vs exit threshold (dense sweep) ==")
		rows, err := runner.ThresholdSweep(branchy.Grid(20))
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatTableII(rows))
	}
	if want("fig8") {
		fmt.Fprintln(out, "== Fig. 8: scaling across end devices (worst→best) ==")
		points, err := runner.DeviceScaling()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatScaling(points))
	}
	if want("fig9") {
		fmt.Fprintln(out, "== Fig. 9: cloud offloading vs device model size ==")
		points, err := runner.CloudOffloading([]int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatOffloading(points))
	}
	if want("fig10") {
		fmt.Fprintln(out, "== Fig. 10: fault tolerance (single device failure) ==")
		points, err := runner.FaultTolerance()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatFaultTolerance(points))
	}
	if want("multifail") {
		fmt.Fprintln(out, "== Extension: multiple simultaneous failures (best devices first) ==")
		points, err := runner.MultiFailure(4)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Failures  Local  Cloud  Overall (%)")
		for _, p := range points {
			fmt.Fprintf(out, "%8d %6.1f %6.1f %8.1f\n", p.FailedDevice, p.Local*100, p.Cloud*100, p.Overall*100)
		}
		fmt.Fprintln(out)
	}
	if want("mixed") {
		fmt.Fprintln(out, "== Extension (§VI): mixed-precision cloud ablation ==")
		rows, err := runner.MixedPrecisionAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatAblation(rows))
	}
	if want("edge") {
		fmt.Fprintln(out, "== Extension: device-edge-cloud hierarchy (Fig. 2(e)) ==")
		row, err := runner.EdgeHierarchy()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatEdgeHierarchy(row))
	}
	if want("comm") {
		fmt.Fprintln(out, "== §IV-H: communication cost vs raw offloading (measured on cluster) ==")
		rep, err := runner.CommunicationReduction(-1, 0)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatCommReport(rep))
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
