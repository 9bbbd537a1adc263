// Command ledgergate fails CI when a deterministic row of the serving
// ledger moves: the bytes, allocations, frames and round trips one
// classification costs. It runs the benchmark exactly as the ledger does
// (bash benchmark/run.sh, unmodified) — one untraced run per workload for
// wire_bytes_per_class and allocs_per_class, and one traced run per
// workload for transport.frames_per_class and transport.rtts_per_session
// — and compares each value with the row committed in ledger.json beside
// this file, within the row's relative tolerance.
//
// A change that moves a row updates ledger.json in the same diff, so the
// cost of a classification is a reviewed line. -write prints the
// measured rows in ledger.json's format, tolerances kept, for that diff.
//
// Usage, from the module root:
//
//	go run ./tools/ledgergate [-write]
//
// Exit status 1, with one line per row out of tolerance, when a row
// moved; 2 when a run failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// ledgerFile is where the committed rows live, relative to the module
// root.
var ledgerFile = filepath.Join("tools", "ledgergate", "ledger.json")

// ledger is the committed record: the run length every run uses and the
// rows.
type ledger struct {
	Seconds float64 `json:"seconds"`
	Rows    []row   `json:"rows"`
}

// row is one workload's value of one metric, and how far a run may read
// from it as a share of the value (0: exactly).
type row struct {
	Workload  string  `json:"workload"`
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
	Tolerance float64 `json:"tolerance"`
}

// traced reports whether the row's metric comes from the traced run.
func (r row) traced() bool {
	return r.Metric == "transport.frames_per_class" || r.Metric == "transport.rtts_per_session"
}

func main() {
	write := flag.Bool("write", false, "print the measured rows as a new ledger.json instead of comparing")
	flag.Parse()
	data, err := os.ReadFile(ledgerFile)
	if err != nil {
		fail(err)
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		fail(fmt.Errorf("%s: %w", ledgerFile, err))
	}
	got, err := measure(l)
	if err != nil {
		fail(err)
	}
	if *write {
		for i := range l.Rows {
			l.Rows[i].Value = got[key(l.Rows[i])]
		}
		fmt.Print(format(l))
		return
	}
	findings := compare(l.Rows, got)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	fmt.Printf("ledgergate: %d rows within tolerance\n", len(l.Rows))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ledgergate:", err)
	os.Exit(2)
}

// format renders a ledger as ledger.json holds it: one row per line, so
// a row that moves is one changed line in a diff.
func format(l ledger) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"seconds\": %v,\n  \"rows\": [\n", l.Seconds)
	for i, r := range l.Rows {
		line, _ := json.Marshal(r)
		sep := ","
		if i == len(l.Rows)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %s%s\n", line, sep)
	}
	b.WriteString("  ]\n}\n")
	return b.String()
}

// key names a row's value in a measurement.
func key(r row) string { return r.Workload + " " + r.Metric }

// measure runs each workload the rows name, untraced and traced as its
// rows need, and returns every row's value by key.
func measure(l ledger) (map[string]float64, error) {
	got := make(map[string]float64)
	done := make(map[string]map[string]float64) // "workload traced?" -> metrics
	for _, r := range l.Rows {
		run := fmt.Sprintf("%s %t", r.Workload, r.traced())
		metrics, ok := done[run]
		if !ok {
			var err error
			if metrics, err = bench(r.Workload, l.Seconds, r.traced()); err != nil {
				return nil, err
			}
			done[run] = metrics
		}
		v, ok := metrics[r.Metric]
		if !ok {
			return nil, fmt.Errorf("%s: the run reported no %s", r.Workload, r.Metric)
		}
		got[key(r)] = v
	}
	return got, nil
}

// bench runs the benchmark once and returns its result line's metrics.
func bench(workload string, seconds float64, traced bool) (map[string]float64, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload, "--seed", "1",
		"--seconds", fmt.Sprint(seconds), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	fmt.Fprintf(os.Stderr, "=== ledgergate: %s, trace %s ===\n", workload, trace)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s (trace %s): result line: %w", workload, trace, err)
	}
	metrics := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = m.Value
	}
	return metrics, nil
}

// compare returns one line per row whose measured value is off its
// committed value by more than the row's tolerance.
func compare(rows []row, got map[string]float64) []string {
	var findings []string
	for _, r := range rows {
		v, ok := got[key(r)]
		if !ok {
			findings = append(findings, fmt.Sprintf("%s %s: not measured", r.Workload, r.Metric))
			continue
		}
		if math.Abs(v-r.Value) > r.Tolerance*math.Abs(r.Value) {
			findings = append(findings, fmt.Sprintf("%s %s = %.4f, ledger says %.4f ± %.1f%%: update %s if the change is meant to move it",
				r.Workload, r.Metric, v, r.Value, 100*r.Tolerance, ledgerFile))
		}
	}
	return findings
}
