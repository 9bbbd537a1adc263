// Command benchmark is the repository's end-to-end serving benchmark:
// it starts the real in-process hierarchy (cluster.NewEngine over
// transport.Mem, optionally under the §IV-B link profiles), drives one
// named workload from this one process, checks every answer against
// the staged reference and prints every metric by name with its unit.
// See README.md for what the workloads and metrics mean and
// ../BENCHMARK.json for the contract a run is judged by.
//
//	bash benchmark/run.sh --workload wan_single --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload wan_single --seed 1 --seconds 12 --trace 1 [-spans spans.jsonl]
//	bash benchmark/run.sh -check-repeat
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with --trace 1 they are
// the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
)

// logOut carries the human-readable report; standard output is kept for
// the result line.
var logOut io.Writer = os.Stderr

// setupRepeats is how many times a run performs the whole set-up;
// setup_s is the median, so one slow set-up does not move it.
const setupRepeats = 3

// minOperations is the fewest timed operations a run may complete: the
// p99 then has at least one sample beyond it. Below tailSamples beyond,
// the report flags the percentile as thinly supported.
const minOperations = 100

// tracedUntracedShare is the part of a traced run's window spent with
// tracing off, measuring the throughput trace.overhead_share compares
// against.
const tracedUntracedShare = 1.0 / 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name        = flag.String("workload", "", "workload to run: "+workloadNames())
		seed        = flag.Int64("seed", 1, "seed of the workload's inputs (sample order, arrival times)")
		seconds     = flag.Float64("seconds", 12, "length of the measured window")
		trace       = flag.Int("trace", 0, "1: traced pass, reports the per-layer metrics; 0: end-to-end metrics, tracing off")
		spans       = flag.String("spans", "", "traced pass: write the span buffer to this file as JSON lines")
		checkRepeat = flag.Bool("check-repeat", false, "run every workload untraced twice and fail if any end-to-end metric differs by more than its bound in BENCHMARK.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *checkRepeat {
		if err := runCheckRepeat(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	wl := workloadByName(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	res, err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace != 0, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run performs one benchmark run: set-up (several times), the measured
// window, and the report. A run that cannot vouch for its numbers — a
// wrong answer, an exit mix off target, too few operations — returns an
// error and prints no result.
func run(wl *workload, seed int64, window time.Duration, traced bool, spansPath string) (*result, error) {
	ctx := context.Background()
	var (
		f      *fixture
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = buildFixture(wl, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := f.warmup(ctx, seed); err != nil {
			f.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	// Set-up garbage (three trained models) is returned to the OS so the
	// window's memory reading is the serving system's.
	debug.FreeOSMemory()

	fmt.Fprintf(logOut, "workload %s  seed %d  window %v  GOMAXPROCS %d  kernels %s  %s\n",
		wl.name, seed, window, runtime.GOMAXPROCS(0), core.KernelPath(), runtime.Version())

	out := &result{Metrics: make(map[string]metricValue)}
	var res *driveResult
	if !traced {
		var use resources
		res, use = measure(func() *driveResult { return f.drive(ctx, seed, window) }, f.rec)
		if err := vouch(wl, res, minOperations); err != nil {
			return nil, err
		}
		report(out, endToEnd, endToEndMetrics(res, use, window, median(setups)))
	} else {
		untraced := time.Duration(float64(window) * tracedUntracedShare)
		before, use := measure(func() *driveResult { return f.drive(ctx, seed, untraced) }, f.rec)
		if err := vouch(wl, before, 1); err != nil {
			return nil, fmt.Errorf("untraced stretch: %w", err)
		}
		f.trace.enable(true)
		w := tracedWindow{
			from:        f.rec.now(),
			untracedPS:  float64(before.classes) / before.elapsed.Seconds(),
			untracedCPU: ms(use.cpu) / float64(before.classes),
		}
		counters := f.rec.counters()
		res = f.drive(ctx, seed+1, window-untraced)
		w.wire = f.rec.counters().sub(counters)
		w.to, w.res = f.rec.now(), res
		f.trace.enable(false)
		if err := vouch(wl, res, minOperations); err != nil {
			return nil, err
		}
		m, sessions := f.trace.layerMetrics(w)
		if err := runProbes(m, f.model, f.test); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		report(out, perLayer, m)
		if spansPath != "" {
			if err := f.trace.writeSpans(spansPath, sessions, wl.ratePerSec == 0); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	out.Correct = true
	out.Attempted, out.Failed = res.attempted, res.failed
	return out, nil
}

// vouch decides whether a stretch of traffic can be reported at all. A
// wrong answer is fatal. Other failed operations (typed errors, non-2xx,
// unfinished requests) are reported in the result's failed count.
func vouch(wl *workload, res *driveResult, needOps int) error {
	if res.failed > 0 {
		fmt.Fprintf(logOut, "%d of %d operations failed; first: %s\n", res.failed, res.attempted, res.firstFailure)
	}
	if res.mismatches > 0 {
		return fmt.Errorf("%d answers differ from the staged reference; first: %s", res.mismatches, res.firstFailure)
	}
	if err := wl.checkMix(res.exits); err != nil {
		return fmt.Errorf("run invalid: %w", err)
	}
	if n := len(res.ops); n < needOps {
		return fmt.Errorf("run invalid: %d timed operations completed, need %d for a p99", n, needOps)
	}
	return nil
}

// A measured window is cut into equal slices. Throughput and the
// latency percentiles are computed per slice and the best slice is
// reported (min-of-k, as the kernel rows of BENCH_pr10 are):
// interference from outside the process only ever makes a slice worse,
// and on the shared reference box it comes in bursts that would
// otherwise move a whole-window number by tens of percent. More,
// shorter slices find a calm moment more reliably, but a slice needs
// enough operations for its p99 to be more than its slowest one, so the
// count follows the number of operations: about opsPerSlice each,
// between minSlices and maxSlices.
const (
	opsPerSlice = 300
	minSlices   = 3
	maxSlices   = 15
)

// resources is what the process consumed during a measured window.
type resources struct {
	cpu     time.Duration // user + system
	mallocs uint64
	peakRSS float64 // MB, highest resident set sampled in the window
	wire    wireCounters
}

// rssSampleEvery is the resident-set sampling period.
const rssSampleEvery = 20 * time.Millisecond

// measure runs fn between two readings of the process's CPU time,
// allocation count and wire counters, sampling its resident set
// meanwhile.
func measure(fn func() *driveResult, rec *recorder) (*driveResult, resources) {
	var (
		use  resources
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wire0, cpu0 := rec.counters(), cpuTime()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			use.peakRSS = max(use.peakRSS, residentMB())
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	res := fn()
	close(stop)
	wg.Wait()
	use.cpu = cpuTime() - cpu0
	use.wire = rec.counters().sub(wire0)
	runtime.ReadMemStats(&ms1)
	use.mallocs = ms1.Mallocs - ms0.Mallocs
	return res, use
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB reads the process's current resident set from
// /proc/self/statm (second field, in pages).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// bestSlices cuts [start, start+window) into equal slices by completion
// time and returns, over the slices, the highest throughput and the
// lowest p50 and p99 latency, plus the number of operations beyond the
// p99 in the slice it came from.
func bestSlices(ops []op, start time.Time, window time.Duration) (throughput, p50, p99 float64, beyond int) {
	n := min(max(len(ops)/opsPerSlice, minSlices), maxSlices)
	width := window / time.Duration(n)
	slices := make([][]float64, n)
	classes := make([]float64, n)
	for _, o := range ops {
		if i := int(o.done.Sub(start) / width); i >= 0 && i < n {
			slices[i] = append(slices[i], o.latencyMs)
			classes[i] += float64(o.classes)
		}
	}
	first := true
	for i, lat := range slices {
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		q50, _ := percentile(lat, 0.5)
		q99, n := percentile(lat, 0.99)
		throughput = max(throughput, classes[i]/width.Seconds())
		if first || q50 < p50 {
			p50 = q50
		}
		if first || q99 < p99 {
			p99, beyond = q99, n
		}
		first = false
	}
	return throughput, p50, p99, beyond
}

func endToEndMetrics(res *driveResult, use resources, window time.Duration, setup float64) map[string]float64 {
	throughput, p50, p99, beyond := bestSlices(res.ops, res.start, window)
	if beyond < tailSamples {
		fmt.Fprintf(logOut, "note: latency_p99_ms has %d operations beyond it in its slice (fewer than %d)\n", beyond, tailSamples)
	}
	classes := float64(res.classes)
	return map[string]float64{
		"setup_s":              setup,
		"throughput_per_s":     throughput,
		"latency_p50_ms":       p50,
		"latency_p99_ms":       p99,
		"wire_bytes_per_class": float64(use.wire.total()) / classes,
		"allocs_per_class":     float64(use.mallocs) / classes,
		"peak_rss_mb":          use.peakRSS,
	}
}

// report prints the metrics by name with their units and copies them
// into the result line.
func report(out *result, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v := values[d.name]
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(logOut, "%-42s %14.4f %s\n", d.name, v, d.unit)
	}
}
