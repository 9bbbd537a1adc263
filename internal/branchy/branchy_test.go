package branchy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPolicyShouldExit(t *testing.T) {
	p := NewPolicy(0.5, 1.0)
	confident := []float32{0.98, 0.01, 0.01} // low entropy
	uncertain := []float32{0.34, 0.33, 0.33} // high entropy

	if !p.ShouldExit(0, confident) {
		t.Error("confident sample refused at local exit")
	}
	if p.ShouldExit(0, uncertain) {
		t.Error("uncertain sample exited at local exit")
	}
	// Final exit always accepts, even an uncertain sample.
	if !p.ShouldExit(1, uncertain) {
		t.Error("final exit refused a sample")
	}
	// Out-of-range exit index behaves as final.
	if !p.ShouldExit(5, uncertain) {
		t.Error("beyond-final exit refused a sample")
	}
}

func TestPolicyThresholdZeroExitsNothing(t *testing.T) {
	p := NewPolicy(0, 1)
	// Even a fairly confident vector has entropy > 0.
	if p.ShouldExit(0, []float32{0.9, 0.05, 0.05}) {
		t.Error("T=0 must exit no (non-degenerate) samples")
	}
	// A perfectly one-hot vector has entropy exactly 0 and may exit.
	if !p.ShouldExit(0, []float32{1, 0, 0}) {
		t.Error("one-hot sample should exit even at T=0")
	}
}

func mkOutcomes() []ExitOutcome {
	// 10 samples: 4 confident & locally correct, 2 confident but locally
	// wrong (cloud would be right), 4 uncertain (cloud right on 3).
	return []ExitOutcome{
		{0.1, true, true}, {0.1, true, true}, {0.2, true, false}, {0.2, true, true},
		{0.3, false, true}, {0.3, false, true},
		{0.9, false, true}, {0.9, false, true}, {0.9, false, true}, {0.9, false, false},
	}
}

func TestSweepEndpoints(t *testing.T) {
	outcomes := mkOutcomes()
	points := Sweep(outcomes, []float64{0, 1})

	// T=0: nothing exits locally; accuracy = upper accuracy = 8/10.
	if points[0].ExitFrac != 0 {
		t.Errorf("T=0 exit fraction = %g, want 0", points[0].ExitFrac)
	}
	if points[0].Accuracy != 0.8 {
		t.Errorf("T=0 accuracy = %g, want 0.8", points[0].Accuracy)
	}
	// T=1: everything exits locally; accuracy = local accuracy = 4/10.
	if points[1].ExitFrac != 1 {
		t.Errorf("T=1 exit fraction = %g, want 1", points[1].ExitFrac)
	}
	if points[1].Accuracy != 0.4 {
		t.Errorf("T=1 accuracy = %g, want 0.4", points[1].Accuracy)
	}
}

func TestSweepMonotoneExitFraction(t *testing.T) {
	f := func(seed int64) bool {
		outcomes := mkOutcomes()
		grid := Grid(10)
		points := Sweep(outcomes, grid)
		for i := 1; i < len(points); i++ {
			if points[i].ExitFrac < points[i-1].ExitFrac {
				return false
			}
		}
		_ = seed
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSweepAccuracyPerThreshold(t *testing.T) {
	// Hand-counted over mkOutcomes. The best accuracy sits at an interior
	// threshold: exiting the confident samples locally beats both sending
	// everything up (T=0) and exiting everything locally (T=1).
	grid := []float64{0, 0.1, 0.2, 0.3, 0.5, 0.9, 1}
	wantExit := []float64{0, 0.2, 0.4, 0.6, 0.6, 1, 1}
	wantAcc := []float64{0.8, 0.8, 0.9, 0.7, 0.7, 0.4, 0.4}
	points := Sweep(mkOutcomes(), grid)
	if len(points) != len(grid) {
		t.Fatalf("got %d points, want %d", len(points), len(grid))
	}
	for i, p := range points {
		if p.Threshold != grid[i] || p.ExitFrac != wantExit[i] || p.Accuracy != wantAcc[i] {
			t.Errorf("point %d = %+v, want {Threshold:%g ExitFrac:%g Accuracy:%g}",
				i, p, grid[i], wantExit[i], wantAcc[i])
		}
	}
}

func TestThresholdForExitFraction(t *testing.T) {
	outcomes := mkOutcomes()
	p := ThresholdForExitFraction(outcomes, Grid(20), 0.55)
	if p.ExitFrac < 0.55 {
		t.Errorf("calibrated exit fraction %g, want ≥ 0.55", p.ExitFrac)
	}
	// Unreachable fraction returns the largest threshold (exit everything).
	p = ThresholdForExitFraction(outcomes, Grid(20), 2)
	if p.ExitFrac != 1 {
		t.Errorf("unreachable fraction: exit frac = %g, want 1", p.ExitFrac)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(10)
	if len(g) != 11 {
		t.Fatalf("Grid(10) has %d points, want 11", len(g))
	}
	if g[0] != 0 || g[10] != 1 {
		t.Errorf("grid endpoints %g..%g, want 0..1", g[0], g[10])
	}
	if math.Abs(g[5]-0.5) > 1e-12 {
		t.Errorf("grid midpoint = %g, want 0.5", g[5])
	}
}
