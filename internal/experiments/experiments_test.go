package experiments

import (
	"strings"
	"sync"
	"testing"

	"github.com/ddnn/ddnn-go/internal/dataset"
)

// tinyRunner shares one reduced-scale runner across the tests; the tests
// check harness invariants, not model quality.
var (
	tinyOnce   sync.Once
	tinyRunner *Runner
)

func runner(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harness tests train models; skipped in -short mode")
	}
	tinyOnce.Do(func() {
		opts := QuickOptions()
		opts.Epochs = 3
		opts.IndividualEpochs = 2
		opts.Data.Train, opts.Data.Test = 120, 40
		r, err := NewRunner(opts)
		if err != nil {
			panic(err)
		}
		tinyRunner = r
	})
	return tinyRunner
}

func TestNewRunnerRejectsBadData(t *testing.T) {
	opts := DefaultOptions()
	opts.Data.Train = 0
	if _, err := NewRunner(opts); err == nil {
		t.Error("NewRunner accepted invalid dataset config")
	}
}

func TestTableIShape(t *testing.T) {
	r := runner(t)
	rows, err := r.TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("Table I has %d rows, want 9", len(rows))
	}
	seen := make(map[string]bool)
	for _, row := range rows {
		if seen[row.Schemes()] {
			t.Errorf("duplicate scheme pair %s", row.Schemes())
		}
		seen[row.Schemes()] = true
		for _, acc := range []float64{row.LocalAcc, row.CloudAcc} {
			if acc < 0 || acc > 1 {
				t.Errorf("%s accuracy %g out of range", row.Schemes(), acc)
			}
		}
	}
	if !seen["MP-CC"] || !seen["CC-MP"] {
		t.Error("missing scheme pairs")
	}
	out := FormatTableI(rows)
	if !strings.Contains(out, "MP-CC") {
		t.Error("FormatTableI missing scheme column")
	}
}

func TestThresholdSweepInvariants(t *testing.T) {
	r := runner(t)
	grid := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	rows, err := r.ThresholdSweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(grid) {
		t.Fatalf("got %d rows, want %d", len(rows), len(grid))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].LocalExitPct < rows[i-1].LocalExitPct {
			t.Errorf("local exit %% must be non-decreasing in T: %g then %g", rows[i-1].LocalExitPct, rows[i].LocalExitPct)
		}
		if rows[i].CommBytes > rows[i-1].CommBytes {
			t.Errorf("comm must be non-increasing in T: %g then %g", rows[i-1].CommBytes, rows[i].CommBytes)
		}
	}
	last := rows[len(rows)-1]
	if last.LocalExitPct != 100 {
		t.Errorf("T=1 exits %.2f%%, want 100%%", last.LocalExitPct)
	}
	if last.CommBytes != 12 {
		t.Errorf("T=1 comm = %g B, want 12 (4·|C|)", last.CommBytes)
	}
	if rows[0].CommBytes != 140 {
		t.Errorf("T=0 comm = %g B, want 140 (12 + 4·256/8)", rows[0].CommBytes)
	}
	best := BestThreshold(rows)
	for _, row := range rows {
		if row.OverallAcc > best.OverallAcc {
			t.Errorf("BestThreshold missed better row at T=%g", row.T)
		}
	}
}

func TestClassDistributionMatchesDataset(t *testing.T) {
	r := runner(t)
	stats := r.ClassDistribution()
	if len(stats) != dataset.NumDevices {
		t.Fatalf("got %d devices, want %d", len(stats), dataset.NumDevices)
	}
	for d, st := range stats {
		total := st.NotPresent
		for _, c := range st.PerClass {
			total += c
		}
		if total != r.Train().Len() {
			t.Errorf("device %d counts sum to %d, want %d", d, total, r.Train().Len())
		}
	}
	out := FormatClassDistribution(stats)
	if !strings.Contains(out, "Not-present") {
		t.Error("FormatClassDistribution missing header")
	}
}

func TestIndividualAccuraciesCachedAndOrdered(t *testing.T) {
	r := runner(t)
	a, err := r.IndividualAccuracies()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.IndividualAccuracies()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Error("IndividualAccuracies not cached deterministically")
		}
	}
	order, err := r.devicesWorstToBest()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if a[order[i]] < a[order[i-1]] {
			t.Error("devicesWorstToBest not sorted ascending")
		}
	}
}

func TestDeviceScalingShape(t *testing.T) {
	r := runner(t)
	points, err := r.DeviceScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != dataset.NumDevices {
		t.Fatalf("got %d points, want %d", len(points), dataset.NumDevices)
	}
	for i, p := range points {
		if p.Devices != i+1 {
			t.Errorf("point %d has device count %d", i, p.Devices)
		}
		if i > 0 && p.Individual < points[i-1].Individual {
			t.Error("individual accuracies must be non-decreasing (worst→best order)")
		}
	}
}

func TestCloudOffloadingShape(t *testing.T) {
	r := runner(t)
	points, err := r.CloudOffloading([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	if points[1].CommBytes <= points[0].CommBytes {
		t.Errorf("comm must grow with filters: f=1 %g B vs f=2 %g B", points[0].CommBytes, points[1].CommBytes)
	}
	for _, p := range points {
		if p.LocalExitPct < 70 {
			t.Errorf("f=%d local exit %.1f%%, calibration target is ≈75%%", p.Filters, p.LocalExitPct)
		}
		if p.DeviceMemByte >= 2048 {
			t.Errorf("f=%d device memory %d B, must stay under 2 KB", p.Filters, p.DeviceMemByte)
		}
	}
}

func TestFaultToleranceShape(t *testing.T) {
	r := runner(t)
	points, err := r.FaultTolerance()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != dataset.NumDevices {
		t.Fatalf("got %d points, want %d", len(points), dataset.NumDevices)
	}
	for _, p := range points {
		if p.Overall < 0.2 {
			t.Errorf("failing device %d collapsed overall accuracy to %g", p.FailedDevice, p.Overall)
		}
	}
}

func TestMultiFailureDegradesMonotonically(t *testing.T) {
	r := runner(t)
	points, err := r.MultiFailure(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4 (0..3 failures)", len(points))
	}
	// Allow small non-monotonicity from the tiny model, but the 3-failure
	// case must not beat the healthy system by a margin.
	if points[3].Overall > points[0].Overall+0.1 {
		t.Errorf("3 failures (%.3f) implausibly beats healthy system (%.3f)", points[3].Overall, points[0].Overall)
	}
}

func TestMixedPrecisionAblation(t *testing.T) {
	r := runner(t)
	rows, err := r.MixedPrecisionAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].DeviceMemBytes != rows[1].DeviceMemBytes {
		t.Error("device memory must be identical across variants (devices stay binary)")
	}
	if rows[1].CloudMemBytes <= rows[0].CloudMemBytes {
		t.Error("float cloud must cost more memory than binary cloud")
	}
	if !strings.Contains(FormatAblation(rows), "mixed precision") {
		t.Error("FormatAblation missing variant name")
	}
}

func TestEdgeHierarchy(t *testing.T) {
	r := runner(t)
	row, err := r.EdgeHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	if len(row.ExitFractions) != 3 {
		t.Fatalf("got %d exit fractions, want 3", len(row.ExitFractions))
	}
	var sum float64
	for _, f := range row.ExitFractions {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("exit fractions sum to %g", sum)
	}
	if !strings.Contains(FormatEdgeHierarchy(row), "edge exit") {
		t.Error("FormatEdgeHierarchy missing edge line")
	}
}

func TestCommunicationReductionMeasuredMatchesAnalytic(t *testing.T) {
	r := runner(t)
	rep, err := r.CommunicationReduction(0.8, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RawOffloadBytes != 3072 {
		t.Errorf("raw baseline %d, want 3072", rep.RawOffloadBytes)
	}
	// The measured payload must match Eq. (1) exactly: the protocol
	// carries precisely the bytes the model charges.
	diff := rep.MeasuredPayloadBytes - rep.AnalyticBytes
	if diff < -0.01 || diff > 0.01 {
		t.Errorf("measured payload %.2f B vs analytic %.2f B", rep.MeasuredPayloadBytes, rep.AnalyticBytes)
	}
	if rep.MeasuredWireBytes <= rep.MeasuredPayloadBytes {
		t.Error("wire bytes must exceed payload (framing)")
	}
	if rep.Reduction <= 1 {
		t.Errorf("reduction %.2fx, want > 1x", rep.Reduction)
	}
	out := FormatCommReport(rep)
	if !strings.Contains(out, "reduction") {
		t.Error("FormatCommReport missing reduction line")
	}
}
