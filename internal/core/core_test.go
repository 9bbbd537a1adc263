package core

import (
	"math"
	"sync"
	"testing"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// smallData returns a reduced dataset for fast training tests.
func smallData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.Train, dcfg.Test = 120, 40
	return dataset.MustGenerate(dcfg)
}

// trainedFixture trains one small DDNN once and shares it across the tests
// that need a converged model rather than architecture checks.
var trainedFixture struct {
	once  sync.Once
	model *Model
	test  *dataset.Dataset
}

func trained(t *testing.T) (*Model, *dataset.Dataset) {
	t.Helper()
	trainedFixture.once.Do(func() {
		dcfg := dataset.DefaultConfig()
		dcfg.Train, dcfg.Test = 240, 60
		train, test := dataset.MustGenerate(dcfg)
		m := MustNewModel(smallConfig())
		tc := DefaultTrainConfig()
		tc.Epochs = 15
		if _, err := m.Train(train, tc); err != nil {
			panic(err)
		}
		trainedFixture.model, trainedFixture.test = m, test
	})
	return trainedFixture.model, trainedFixture.test
}

// smallConfig returns a reduced model for fast tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.CloudFilters = 8
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		wantOK bool
	}{
		{"default", func(c *Config) {}, true},
		{"edge tier", func(c *Config) { c.UseEdge = true }, true},
		{"zero devices", func(c *Config) { c.Devices = 0 }, false},
		{"one class", func(c *Config) { c.Classes = 1 }, false},
		{"bad input", func(c *Config) { c.InputH = 0 }, false},
		{"most input channels", func(c *Config) { c.InputC = tensor.FrameMaxChannels }, true},
		{"too many input channels", func(c *Config) { c.InputC = tensor.FrameMaxChannels + 1 }, false},
		{"non-divisible input", func(c *Config) { c.InputH = 30 }, false},
		{"zero device filters", func(c *Config) { c.DeviceFilters = 0 }, false},
		{"zero cloud filters", func(c *Config) { c.CloudFilters = 0 }, false},
		{"most cloud filters", func(c *Config) { c.CloudFilters = bnn.MaxPlaneChannels }, true},
		{"too many cloud filters", func(c *Config) { c.CloudFilters = bnn.MaxPlaneChannels + 1 }, false},
		{"too many CC channels", func(c *Config) { c.DeviceFilters = bnn.MaxPlaneChannels/6 + 1 }, false},
		{"bad local agg", func(c *Config) { c.LocalAgg = 0 }, false},
		{"bad cloud agg", func(c *Config) { c.CloudAgg = 99 }, false},
		{"edge without filters", func(c *Config) { c.UseEdge = true; c.EdgeFilters = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.wantOK {
				t.Errorf("Validate() err = %v, want ok=%v", err, tt.wantOK)
			}
		})
	}
}

func TestCommCostMatchesTableII(t *testing.T) {
	// Table II endpoints for f=4, o=256, |C|=3: T=1.0 (l=100%) costs 12 B;
	// T=0.1 (l=0%) costs 140 B.
	cfg := DefaultConfig()
	cfg.DeviceFilters = 4
	if got := cfg.CommCostBytes(1.0); got != 12 {
		t.Errorf("CommCostBytes(l=1) = %g, want 12", got)
	}
	if got := cfg.CommCostBytes(0); got != 140 {
		t.Errorf("CommCostBytes(l=0) = %g, want 140", got)
	}
	// The paper's headline operating point: l=60.82% costs ≈62 B.
	if got := cfg.CommCostBytes(0.6082); math.Abs(got-62.15) > 0.1 {
		t.Errorf("CommCostBytes(l=0.6082) = %g, want ≈62", got)
	}
}

func TestRawOffloadBaseline(t *testing.T) {
	// §IV-H: a 32×32 RGB image costs 3072 B.
	if got := DefaultConfig().RawOffloadBytes(); got != 3072 {
		t.Errorf("RawOffloadBytes = %d, want 3072", got)
	}
}

func TestNewModelAllAggregationCombos(t *testing.T) {
	for _, local := range agg.Schemes() {
		for _, cloud := range agg.Schemes() {
			cfg := smallConfig()
			cfg.LocalAgg, cfg.CloudAgg = local, cloud
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatalf("%v-%v: %v", local, cloud, err)
			}
			if m.ParamCount() == 0 {
				t.Errorf("%v-%v: no parameters", local, cloud)
			}
		}
	}
}

func TestModelDeterministicConstruction(t *testing.T) {
	cfg := smallConfig()
	a := MustNewModel(cfg)
	b := MustNewModel(cfg)
	as, bs := a.StateDict(), b.StateDict()
	for i := range as {
		for j, v := range as[i].T.Data() {
			if bs[i].T.Data()[j] != v {
				t.Fatalf("tensor %q differs between identically-seeded models", as[i].Name)
			}
		}
	}
}

func TestInferShapes(t *testing.T) {
	_, test := smallData(t)
	m := MustNewModel(smallConfig())
	xs := test.AllDeviceBatches(m.Cfg.Devices, []int{0, 1, 2})
	logits := m.Infer(xs, nil)
	if logits.Local.Dim(0) != 3 || logits.Local.Dim(1) != m.Cfg.Classes {
		t.Errorf("local logits shape %v", logits.Local.Shape())
	}
	if logits.Cloud.Dim(0) != 3 || logits.Cloud.Dim(1) != m.Cfg.Classes {
		t.Errorf("cloud logits shape %v", logits.Cloud.Shape())
	}
	if logits.Edge != nil {
		t.Error("edge logits from a model without edge tier")
	}
}

func TestEdgeModelProducesThreeExits(t *testing.T) {
	_, test := smallData(t)
	cfg := smallConfig()
	cfg.UseEdge = true
	m := MustNewModel(cfg)
	xs := test.AllDeviceBatches(m.Cfg.Devices, []int{0, 1})
	logits := m.Infer(xs, nil)
	if logits.Edge == nil {
		t.Fatal("edge-tier model produced no edge logits")
	}
	if logits.Edge.Dim(1) != cfg.Classes {
		t.Errorf("edge logits shape %v", logits.Edge.Shape())
	}
}

func TestMixedPrecisionCloud(t *testing.T) {
	train, test := smallData(t)
	cfg := smallConfig()
	cfg.FloatCloud = true
	m := MustNewModel(cfg)

	// Mixed-precision cloud must cost ≈32× the binary cloud's weight
	// memory while the device sections stay binary and small.
	binary := MustNewModel(smallConfig())
	if m.DeviceMemoryBytes() != binary.DeviceMemoryBytes() {
		t.Errorf("device memory changed: %d vs %d", m.DeviceMemoryBytes(), binary.DeviceMemoryBytes())
	}
	if m.CloudMemoryBytes() <= 10*binary.CloudMemoryBytes() {
		t.Errorf("float cloud memory %d B not ≫ binary %d B", m.CloudMemoryBytes(), binary.CloudMemoryBytes())
	}

	tc := DefaultTrainConfig()
	tc.Epochs = 12
	if _, err := m.Train(train, tc); err != nil {
		t.Fatal(err)
	}
	res := m.Evaluate(test, nil, 16)
	if res.CloudAccuracy() < 0.34 {
		t.Errorf("mixed-precision cloud accuracy %g below chance", res.CloudAccuracy())
	}
}

func TestEdgeModelEvaluateAndStagedInference(t *testing.T) {
	train, test := smallData(t)
	cfg := smallConfig()
	cfg.UseEdge = true
	m := MustNewModel(cfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 3
	if _, err := m.Train(train, tc); err != nil {
		t.Fatal(err)
	}
	res := m.Evaluate(test, nil, 16)
	if res.EdgeProbs == nil {
		t.Fatal("edge model evaluation produced no edge probabilities")
	}
	if acc := res.EdgeAccuracy(); acc < 0 || acc > 1 {
		t.Errorf("edge accuracy %g out of range", acc)
	}
	// Three-exit staged inference: fractions over local/edge/cloud sum to 1.
	pol := branchy.NewPolicy(0.5, 0.8, 1)
	fr := res.ExitFractions(pol)
	if len(fr) != 3 {
		t.Fatalf("got %d exit fractions, want 3", len(fr))
	}
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("exit fractions sum to %g", sum)
	}
	// EdgeAccuracy of a no-edge result is defined as 0.
	plain := (&EvalResult{Labels: []int{0}, LocalProbs: [][]float32{{1, 0, 0}}, CloudProbs: [][]float32{{1, 0, 0}}})
	if plain.EdgeAccuracy() != 0 {
		t.Error("EdgeAccuracy without edge tier must be 0")
	}
}

func TestTrainStepAccumulatesAllGradients(t *testing.T) {
	// Every parameter must receive gradient from the joint loss; a zero
	// gradient means a broken routing path through an aggregator.
	train, _ := smallData(t)
	m := MustNewModel(smallConfig())
	xs := train.AllDeviceBatches(m.Cfg.Devices, []int{0, 1, 2, 3, 4, 5, 6, 7})
	labels := train.Labels([]int{0, 1, 2, 3, 4, 5, 6, 7})
	nn.ZeroGrads(m.Params())
	total, perExit := m.TrainStep(xs, labels)
	if total <= 0 {
		t.Fatalf("loss = %g, want > 0", total)
	}
	if len(perExit) != 2 {
		t.Fatalf("got %d per-exit losses, want 2", len(perExit))
	}
	zero := 0
	for _, p := range m.Params() {
		if p.Grad.L2Norm() == 0 {
			zero++
			t.Logf("zero gradient: %s", p.Name)
		}
	}
	// Batch-norm βγ at binarized boundaries can legitimately have tiny
	// gradients, but not whole swaths of parameters.
	if zero > 2 {
		t.Errorf("%d parameters received no gradient", zero)
	}
}

func TestEdgeTrainStepThreeLosses(t *testing.T) {
	train, _ := smallData(t)
	cfg := smallConfig()
	cfg.UseEdge = true
	m := MustNewModel(cfg)
	xs := train.AllDeviceBatches(m.Cfg.Devices, []int{0, 1, 2, 3})
	labels := train.Labels([]int{0, 1, 2, 3})
	nn.ZeroGrads(m.Params())
	_, perExit := m.TrainStep(xs, labels)
	if len(perExit) != 3 {
		t.Fatalf("got %d per-exit losses, want 3 (local, edge, cloud)", len(perExit))
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	train, _ := smallData(t)
	m := MustNewModel(smallConfig())
	tc := DefaultTrainConfig()
	tc.Epochs = 6
	var losses []float64
	tc.Progress = func(epoch int, loss float64) { losses = append(losses, loss) }
	if _, err := m.Train(train, tc); err != nil {
		t.Fatal(err)
	}
	first, last := losses[0], losses[len(losses)-1]
	if last >= first {
		t.Errorf("loss did not decrease: %g → %g", first, last)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	train, _ := smallData(t)
	m := MustNewModel(smallConfig())
	if _, err := m.Train(train, TrainConfig{Epochs: 0, BatchSize: 32}); err == nil {
		t.Error("Train accepted zero epochs")
	}
	if _, err := m.Train(train, TrainConfig{Epochs: 1, BatchSize: 0}); err == nil {
		t.Error("Train accepted zero batch size")
	}
}

func TestEvaluateAccuracyMeasures(t *testing.T) {
	m, test := trained(t)
	res := m.Evaluate(test, nil, 16)
	if len(res.LocalProbs) != test.Len() || len(res.CloudProbs) != test.Len() {
		t.Fatalf("evaluated %d/%d samples, want %d", len(res.LocalProbs), len(res.CloudProbs), test.Len())
	}
	for _, acc := range []float64{res.LocalAccuracy(), res.CloudAccuracy()} {
		if acc < 0 || acc > 1 {
			t.Errorf("accuracy %g out of [0,1]", acc)
		}
	}
	// A trained model must beat random guessing (1/3) at both exits.
	if res.LocalAccuracy() < 0.45 || res.CloudAccuracy() < 0.45 {
		t.Errorf("local %g / cloud %g below sanity bound", res.LocalAccuracy(), res.CloudAccuracy())
	}

	// T=1 exits everything locally, so overall accuracy equals local.
	polAll := branchy.NewPolicy(1, 1)
	if got := res.OverallAccuracy(polAll); got != res.LocalAccuracy() {
		t.Errorf("overall@T=1 = %g, want local accuracy %g", got, res.LocalAccuracy())
	}
	if got := res.LocalExitFraction(polAll); got != 1 {
		t.Errorf("local exit fraction @T=1 = %g, want 1", got)
	}

	// T=-1 exits nothing locally, so overall accuracy equals cloud.
	polNone := branchy.NewPolicy(-1, 1)
	if got := res.OverallAccuracy(polNone); got != res.CloudAccuracy() {
		t.Errorf("overall@T=-1 = %g, want cloud accuracy %g", got, res.CloudAccuracy())
	}
	if got := res.LocalExitFraction(polNone); got != 0 {
		t.Errorf("local exit fraction @T=-1 = %g, want 0", got)
	}

	// Exit fractions always sum to 1.
	for _, T := range []float64{0, 0.3, 0.5, 0.8, 1} {
		fr := res.ExitFractions(branchy.NewPolicy(T, 1))
		var sum float64
		for _, f := range fr {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("exit fractions at T=%g sum to %g", T, sum)
		}
	}
}

func TestEvaluateWithMaskDegradesGracefully(t *testing.T) {
	m, test := trained(t)
	full := m.Evaluate(test, nil, 16)
	mask := []bool{true, true, false, true, true, true} // device 2 failed
	degraded := m.Evaluate(test, mask, 16)
	if degraded.CloudAccuracy() < 0.33 {
		t.Errorf("masked cloud accuracy %g collapsed below chance", degraded.CloudAccuracy())
	}
	// Failure should not *improve* things dramatically; allow generous
	// slack since the dataset is tiny.
	if degraded.CloudAccuracy() > full.CloudAccuracy()+0.25 {
		t.Errorf("masked accuracy %g suspiciously above full %g", degraded.CloudAccuracy(), full.CloudAccuracy())
	}
}

func TestSectionCompositionMatchesInfer(t *testing.T) {
	// Running the model section by section (as the cluster runtime does)
	// must reproduce Infer exactly.
	train, test := smallData(t)
	m := MustNewModel(smallConfig())
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	if _, err := m.Train(train, tc); err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 1, 2}
	xs := test.AllDeviceBatches(m.Cfg.Devices, idx)
	want := m.Infer(xs, nil)

	var featList, vecList []*tensor.Tensor
	for d := 0; d < m.Cfg.Devices; d++ {
		f, v := m.DeviceForward(d, xs[d])
		featList = append(featList, f)
		vecList = append(vecList, v)
	}
	gotLocal := m.LocalAggregate(vecList, nil)
	gotCloud := m.CloudForward(featList, nil)
	for i, v := range want.Local.Data() {
		if gotLocal.Data()[i] != v {
			t.Fatalf("local logits differ at %d", i)
		}
	}
	for i, v := range want.Cloud.Data() {
		if gotCloud.Data()[i] != v {
			t.Fatalf("cloud logits differ at %d", i)
		}
	}
}

func TestPackUnpackFeatureRoundTrip(t *testing.T) {
	_, test := smallData(t)
	m := MustNewModel(smallConfig())
	x := test.DeviceBatch(0, []int{0})
	feat, _ := m.DeviceForward(0, x)
	bits := m.PackFeature(feat)
	wantBytes := (m.Cfg.DeviceFilters*m.Cfg.FeatureSize() + 7) / 8
	if len(bits) != wantBytes {
		t.Errorf("packed feature = %d bytes, want %d (Eq. 1: f·o/8)", len(bits), wantBytes)
	}
	back := tensor.New(feat.Shape()...)
	if err := m.UnpackFeatureInto(back, 0, bits); err != nil {
		t.Fatal(err)
	}
	for i, v := range feat.Data() {
		if back.Data()[i] != v {
			t.Fatalf("feature bit %d lost in packing", i)
		}
	}
}

func TestIndividualModelTrainsAboveChance(t *testing.T) {
	train, test := smallData(t)
	im, err := NewIndividualModel(smallConfig(), 5) // cleanest device
	if err != nil {
		t.Fatal(err)
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 6
	if _, err := im.Train(train, tc); err != nil {
		t.Fatal(err)
	}
	if acc := im.Accuracy(test, 16); acc < 0.34 {
		t.Errorf("individual accuracy %g not above chance", acc)
	}
}

func TestIndividualModelRejectsBadDevice(t *testing.T) {
	if _, err := NewIndividualModel(smallConfig(), -1); err == nil {
		t.Error("accepted device -1")
	}
	if _, err := NewIndividualModel(smallConfig(), 6); err == nil {
		t.Error("accepted device beyond range")
	}
}

func TestDeviceMemoryUnder2KB(t *testing.T) {
	// §IV-F: all evaluated device configurations fit under 2 KB.
	for _, f := range []int{1, 2, 4, 8} {
		cfg := smallConfig()
		cfg.DeviceFilters = f
		m := MustNewModel(cfg)
		if got := m.DeviceMemoryBytes(); got >= 2048 {
			t.Errorf("device memory with f=%d: %d B, want < 2048", f, got)
		}
	}
}

func TestOutcomesFeedThresholdSearch(t *testing.T) {
	m, test := trained(t)
	res := m.Evaluate(test, nil, 16)
	outcomes := res.Outcomes()
	if len(outcomes) != test.Len() {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), test.Len())
	}
	best, err := branchy.SearchThreshold(outcomes, branchy.Grid(10))
	if err != nil {
		t.Fatal(err)
	}
	// The searched threshold's accuracy must match OverallAccuracy at the
	// same T (they are two routes to the same quantity).
	pol := branchy.NewPolicy(best.Threshold, 1)
	if got := res.OverallAccuracy(pol); math.Abs(got-best.Accuracy) > 1e-9 {
		t.Errorf("sweep accuracy %g vs OverallAccuracy %g at T=%g", best.Accuracy, got, best.Threshold)
	}
}

func TestEvalResultExitWalksStages(t *testing.T) {
	confident := []float32{1, 0, 0}
	unsure := []float32{0.34, 0.33, 0.33}
	res := &EvalResult{
		Labels:     []int{0, 1, 2},
		LocalProbs: [][]float32{confident, unsure, unsure},
		EdgeProbs:  [][]float32{unsure, {0.1, 0.9, 0}, unsure},
		CloudProbs: [][]float32{unsure, unsure, {0.2, 0.2, 0.6}},
	}
	pol := branchy.NewPolicy(0.5, 0.5, 1)
	for i, want := range []int{0, 1, 2} {
		e, probs := res.Exit(pol, i)
		if e != want {
			t.Errorf("sample %d exits at %d, want %d", i, e, want)
		}
		if Argmax(probs) != res.Labels[i] {
			t.Errorf("sample %d predicts %d, want %d", i, Argmax(probs), res.Labels[i])
		}
	}
	if fr := res.ExitFractions(pol); fr[0] != 1.0/3 || fr[1] != 1.0/3 || fr[2] != 1.0/3 {
		t.Errorf("exit fractions %v, want a third each", fr)
	}
	if got := Argmax([]float32{0.5, 0.5, 0}); got != 0 {
		t.Errorf("Argmax tie = %d, want the first index 0", got)
	}
}

// TestReferenceCachesPerMaskAndVersion: the oracle evaluates each
// (presence mask, model version) once, keeps masks and versions apart,
// and answers nil for a version it was never given.
func TestReferenceCachesPerMaskAndVersion(t *testing.T) {
	m, test := trained(t)
	ref := NewReference(m, test)
	full := []bool{true, true, true, true, true, true}
	er := ref.For(full, 1)
	if ref.For(full, 1) != er {
		t.Error("a repeated (mask, version) was evaluated again")
	}
	masked := append([]bool(nil), full...)
	masked[0] = false
	if got, want := ref.For(masked, 1).LocalProbs, m.Evaluate(test, masked, 32).LocalProbs; !probsEqual(got, want) {
		t.Error("masked reference differs from Evaluate under the mask")
	}
	if ref.For(nil, 2) != nil {
		t.Error("an unregistered version has a reference")
	}
	cfg := m.Cfg
	cfg.Seed += 99
	v2 := MustNewModel(cfg)
	ref.AddModel(2, v2)
	if got, want := ref.For(full, 2).CloudProbs, v2.Evaluate(test, full, 32).CloudProbs; !probsEqual(got, want) {
		t.Error("version 2 reference is not version 2's evaluation")
	}
}

func probsEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
