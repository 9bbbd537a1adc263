package dataset

import (
	"math"
	"testing"
)

func TestGenerateSplitSizes(t *testing.T) {
	train, test := MustGenerate(DefaultConfig())
	if train.Len() != 680 {
		t.Errorf("train size = %d, want 680 (paper §IV-B)", train.Len())
	}
	if test.Len() != 171 {
		t.Errorf("test size = %d, want 171 (paper §IV-B)", test.Len())
	}
	if train.Devices() != NumDevices {
		t.Errorf("devices = %d, want %d", train.Devices(), NumDevices)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := MustGenerate(cfg)
	b, _ := MustGenerate(cfg)
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			t.Fatalf("sample %d label differs between runs", i)
		}
		for d := 0; d < NumDevices; d++ {
			for p := range a.Samples[i].Views[d] {
				if a.Samples[i].Views[d][p] != b.Samples[i].Views[d][p] {
					t.Fatalf("sample %d device %d pixel %d differs", i, d, p)
				}
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := MustGenerate(cfg)
	cfg.Seed = 2
	b, _ := MustGenerate(cfg)
	same := true
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical label sequences")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero train", func(c *Config) { c.Train = 0 }},
		{"zero test", func(c *Config) { c.Test = 0 }},
		{"zero devices", func(c *Config) { c.Devices = 0 }},
		{"presence mismatch", func(c *Config) { c.Presence = c.Presence[:2] }},
		{"noise mismatch", func(c *Config) { c.Noise = c.Noise[:3] }},
		{"priors mismatch", func(c *Config) { c.ClassPriors = []float64{1} }},
		{"negative prior", func(c *Config) { c.ClassPriors = []float64{-1, 1, 1} }},
		{"zero priors", func(c *Config) { c.ClassPriors = []float64{0, 0, 0} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted invalid config")
			}
		})
	}
}

func TestPixelsInUnitRange(t *testing.T) {
	train, _ := MustGenerate(DefaultConfig())
	for i, s := range train.Samples[:50] {
		for d, view := range s.Views {
			for p, v := range view {
				if v < 0 || v > 1 {
					t.Fatalf("sample %d device %d pixel %d = %g out of [0,1]", i, d, p, v)
				}
			}
		}
	}
}

func TestAbsentViewsAreGrey(t *testing.T) {
	train, _ := MustGenerate(DefaultConfig())
	found := false
	for _, s := range train.Samples {
		for d, lbl := range s.ViewLabels {
			if lbl == NotPresent {
				found = true
				for p, v := range s.Views[d] {
					if v != 0.5 {
						t.Fatalf("absent view pixel %d = %g, want 0.5 (all-grey frame)", p, v)
					}
				}
			}
		}
	}
	if !found {
		t.Error("no absent views generated; presence probabilities too high")
	}
}

func TestEverySampleVisibleSomewhere(t *testing.T) {
	train, test := MustGenerate(DefaultConfig())
	for _, ds := range []*Dataset{train, test} {
		for i, s := range ds.Samples {
			present := false
			for _, lbl := range s.ViewLabels {
				if lbl != NotPresent {
					present = true
					break
				}
			}
			if !present {
				t.Fatalf("sample %d visible in no view", i)
			}
		}
	}
}

func TestPresenceRatesTrackConfig(t *testing.T) {
	cfg := DefaultConfig()
	train, _ := MustGenerate(cfg)
	stats := train.Stats()
	for d, st := range stats {
		presentFrac := 1 - float64(st.NotPresent)/float64(train.Len())
		if math.Abs(presentFrac-cfg.Presence[d]) > 0.08 {
			t.Errorf("device %d presence = %.2f, config %.2f", d, presentFrac, cfg.Presence[d])
		}
	}
}

func TestStatsSumToDatasetSize(t *testing.T) {
	train, _ := MustGenerate(DefaultConfig())
	for d, st := range train.Stats() {
		total := st.NotPresent
		for _, c := range st.PerClass {
			total += c
		}
		if total != train.Len() {
			t.Errorf("device %d stats total %d, want %d", d, total, train.Len())
		}
	}
}

func TestClassImbalance(t *testing.T) {
	// Fig. 6 shows an imbalanced class distribution; car must dominate.
	train, _ := MustGenerate(DefaultConfig())
	var counts [NumClasses]int
	for _, s := range train.Samples {
		counts[s.Label]++
	}
	if !(counts[0] > counts[1] && counts[1] > counts[2]) {
		t.Errorf("class counts %v, want car > bus > person", counts)
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("class %s has no samples", ClassNames[c])
		}
	}
}

func TestDeviceBatchShapeAndContent(t *testing.T) {
	train, _ := MustGenerate(DefaultConfig())
	b := train.DeviceBatch(0, []int{0, 5, 10})
	wantShape := []int{3, ImageC, ImageH, ImageW}
	for i, d := range wantShape {
		if b.Dim(i) != d {
			t.Fatalf("batch shape %v, want %v", b.Shape(), wantShape)
		}
	}
	for p := 0; p < ImageSize; p++ {
		if b.Data()[ImageSize+p] != train.Samples[5].Views[0][p] {
			t.Fatal("batch row 1 does not match sample 5")
		}
	}
}

func TestDeviceBatchNilSelectsAll(t *testing.T) {
	_, test := MustGenerate(DefaultConfig())
	b := test.DeviceBatch(2, nil)
	if b.Dim(0) != test.Len() {
		t.Errorf("nil-indices batch rows = %d, want %d", b.Dim(0), test.Len())
	}
	labels := test.Labels(nil)
	if len(labels) != test.Len() {
		t.Errorf("nil-indices labels = %d, want %d", len(labels), test.Len())
	}
}

func TestAllDeviceBatches(t *testing.T) {
	train, _ := MustGenerate(DefaultConfig())
	bs := train.AllDeviceBatches(4, []int{0, 1})
	if len(bs) != 4 {
		t.Fatalf("got %d batches, want 4", len(bs))
	}
	for d, b := range bs {
		if b.Dim(0) != 2 {
			t.Errorf("device %d batch rows = %d, want 2", d, b.Dim(0))
		}
	}
}

func TestPresentIndicesExcludeAbsent(t *testing.T) {
	train, _ := MustGenerate(DefaultConfig())
	for d := 0; d < NumDevices; d++ {
		for _, idx := range train.PresentIndices(d) {
			if train.Samples[idx].ViewLabels[d] == NotPresent {
				t.Fatalf("PresentIndices(%d) returned absent sample %d", d, idx)
			}
		}
	}
}

func TestReorderDevices(t *testing.T) {
	train, _ := MustGenerate(DefaultConfig())
	sub := train.ReorderDevices([]int{5, 2})
	if sub.Devices() != 2 {
		t.Fatalf("reordered devices = %d, want 2", sub.Devices())
	}
	if sub.Len() != train.Len() {
		t.Fatalf("reordered samples = %d, want %d", sub.Len(), train.Len())
	}
	for i := 0; i < 20; i++ {
		if sub.Samples[i].ViewLabels[0] != train.Samples[i].ViewLabels[5] {
			t.Fatal("device 0 of reordered set must be old device 5")
		}
		if sub.Samples[i].ViewLabels[1] != train.Samples[i].ViewLabels[2] {
			t.Fatal("device 1 of reordered set must be old device 2")
		}
		for p := 0; p < 10; p++ {
			if sub.Samples[i].Views[0][p] != train.Samples[i].Views[5][p] {
				t.Fatal("view data must be shared, not regenerated")
			}
		}
	}
}

func TestReorderDevicesPanicsOutOfRange(t *testing.T) {
	train, _ := MustGenerate(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range device did not panic")
		}
	}()
	train.ReorderDevices([]int{0, 9})
}

func TestSubset(t *testing.T) {
	train, _ := MustGenerate(DefaultConfig())
	sub := train.Subset([]int{3, 7})
	if sub.Len() != 2 {
		t.Fatalf("subset size = %d, want 2", sub.Len())
	}
	if sub.Samples[0].Label != train.Samples[3].Label {
		t.Error("subset sample 0 mismatch")
	}
	if sub.Devices() != train.Devices() {
		t.Error("subset device count mismatch")
	}
}

func TestViewpointsDifferAcrossDevices(t *testing.T) {
	// The same object must look different from different cameras
	// (otherwise there is nothing to fuse).
	train, _ := MustGenerate(DefaultConfig())
	for _, s := range train.Samples {
		var present []int
		for d, lbl := range s.ViewLabels {
			if lbl != NotPresent {
				present = append(present, d)
			}
		}
		if len(present) < 2 {
			continue
		}
		a, b := s.Views[present[0]], s.Views[present[1]]
		diff := 0
		for p := range a {
			if a[p] != b[p] {
				diff++
			}
		}
		if diff == 0 {
			t.Fatal("two devices produced identical views")
		}
		return // one multi-view sample suffices
	}
}

func TestClassesAreVisuallyDistinct(t *testing.T) {
	// Average images per class from the clean device (device 5 has the
	// least noise) must differ substantially between classes.
	cfg := DefaultConfig()
	train, _ := MustGenerate(cfg)
	var sums [NumClasses][]float32
	var counts [NumClasses]int
	for _, s := range train.Samples {
		if s.ViewLabels[5] == NotPresent {
			continue
		}
		if sums[s.Label] == nil {
			sums[s.Label] = make([]float32, ImageSize)
		}
		for p, v := range s.Views[5] {
			sums[s.Label][p] += v
		}
		counts[s.Label]++
	}
	for a := 0; a < NumClasses; a++ {
		for b := a + 1; b < NumClasses; b++ {
			if counts[a] == 0 || counts[b] == 0 {
				continue
			}
			var dist float64
			for p := range sums[a] {
				d := float64(sums[a][p])/float64(counts[a]) - float64(sums[b][p])/float64(counts[b])
				dist += d * d
			}
			dist = math.Sqrt(dist)
			if dist < 1 {
				t.Errorf("mean images of %s and %s too close (L2 = %g)", ClassNames[a], ClassNames[b], dist)
			}
		}
	}
}

// TestViewsOnFrameGrid: every generated value is q/GridSteps for a
// byte q (absent views are 128/256 exactly), Frames returns those bytes,
// and FrameByte refuses off-grid, out-of-range and NaN values.
func TestViewsOnFrameGrid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Train, cfg.Test = 40, 10
	train, _ := MustGenerate(cfg)
	for d := 0; d < NumDevices; d++ {
		frames := train.Frames(d)
		for i, s := range train.Samples {
			for p, v := range s.Views[d] {
				q := frames[i*ImageSize+p]
				if float32(q)/GridSteps != v {
					t.Fatalf("sample %d device %d value %d: %g is not byte %d on the grid", i, d, p, v, q)
				}
				if s.ViewLabels[d] == NotPresent && q != 128 {
					t.Fatalf("sample %d device %d: absent view holds byte %d, want 128", i, d, q)
				}
			}
		}
	}
	for _, v := range []float32{1.0 / 512, -1.0 / 256, 1, float32(math.NaN()), float32(math.Inf(1)), 0.1} {
		if q, ok := FrameByte(v); ok {
			t.Errorf("FrameByte(%g) = %d, true; want off the grid", v, q)
		}
	}
	for _, q := range []int{0, 1, 128, 255} {
		if got, ok := FrameByte(float32(q) / GridSteps); !ok || int(got) != q {
			t.Errorf("FrameByte(%d/256) = %d, %v", q, got, ok)
		}
	}
}
