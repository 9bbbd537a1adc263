package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the self-test reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runCheckRepeat is the benchmark testing its own steadiness: it runs
// the untraced set twice on this one build, with BENCHMARK.json's
// window, and fails if any end-to-end metric of any workload differs
// between the passes by more than that metric's own bound. Each run is
// a process of its own, as under the driver: runs sharing a process
// inherit each other's heap and get slower one after the other. It must
// be started from the repository root, where BENCHMARK.json lives.
func runCheckRepeat(seed int64) error {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var passes [2]map[string]*result
	for p := range passes {
		passes[p] = make(map[string]*result)
		for _, w := range man.Workloads {
			fmt.Fprintf(os.Stderr, "pass %d: %s\n", p+1, w.Name)
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(man.RunSeconds), "--trace", "0")
			var report bytes.Buffer
			cmd.Stderr = &report
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("pass %d, %s: %w\n%s", p+1, w.Name, err, report.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("pass %d, %s: result line: %w", p+1, w.Name, err)
			}
			passes[p][w.Name] = &res
		}
	}
	fmt.Printf("%-11s %-22s %14s %14s %8s %6s\n", "workload", "metric", "pass 1", "pass 2", "differ", "bound")
	exceeded := 0
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			a := passes[0][w.Name].Metrics[m.Name].Value
			b := passes[1][w.Name].Metrics[m.Name].Value
			differ := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if differ > m.Bound {
				verdict = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-11s %-22s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.Name, m.Name, a, b, 100*differ, 100*m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same build by more than their bound", exceeded)
	}
	return nil
}
