package experiments

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
)

// ClassDistribution returns the per-device class histogram of the training
// split (Fig. 6).
func (r *Runner) ClassDistribution() []dataset.DeviceStats {
	return r.train.Stats()
}

// ScalingPoint is one x-position of Fig. 8: the system accuracies with the
// k worst devices (by individual accuracy) participating.
type ScalingPoint struct {
	Devices    int
	Individual float64 // individual accuracy of the k-th added device
	Local      float64 // accuracy exiting 100% at the local exit
	Cloud      float64 // accuracy exiting 100% at the cloud exit
	Overall    float64 // staged accuracy at T=0.8
}

// DeviceScaling reproduces Fig. 8: devices are added in worst-to-best
// individual-accuracy order; for each count k a DDNN over those k devices
// is jointly trained and evaluated (E5).
func (r *Runner) DeviceScaling() ([]ScalingPoint, error) {
	order, err := r.devicesWorstToBest()
	if err != nil {
		return nil, err
	}
	accs, err := r.IndividualAccuracies()
	if err != nil {
		return nil, err
	}
	points := make([]ScalingPoint, 0, len(order))
	for k := 1; k <= len(order); k++ {
		m, err := r.scalingModel(order[:k])
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig 8 k=%d: %w", k, err)
		}
		testK := r.test.ReorderDevices(order[:k])
		res := m.Evaluate(testK, nil, r.opts.BatchSize)
		pol := branchy.NewPolicy(0.8, 1)
		points = append(points, ScalingPoint{
			Devices:    k,
			Individual: accs[order[k-1]],
			Local:      res.LocalAccuracy(),
			Cloud:      res.CloudAccuracy(),
			Overall:    res.OverallAccuracy(pol),
		})
	}
	return points, nil
}

// scalingModel trains a DDNN over a device subset (in the given order).
func (r *Runner) scalingModel(order []int) (*core.Model, error) {
	key := fmt.Sprintf("scaling-%v", order)
	r.mu.Lock()
	m, ok := r.models[key]
	r.mu.Unlock()
	if ok {
		return m, nil
	}
	cfg := r.opts.Model
	cfg.Devices = len(order)
	cfg.LocalAgg, cfg.CloudAgg = agg.MP, agg.CC
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	trainK := r.train.ReorderDevices(order)
	tc := core.DefaultTrainConfig()
	tc.Epochs = r.opts.Epochs
	tc.BatchSize = r.opts.BatchSize
	if _, err := m.Train(trainK, tc); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.models[key] = m
	r.mu.Unlock()
	return m, nil
}

// OffloadPoint is one x-position of Fig. 9: a device-filter count, the
// resulting communication cost and accuracies with the threshold tuned so
// ≈75% of samples exit locally.
type OffloadPoint struct {
	Filters       int
	Threshold     float64
	LocalExitPct  float64
	CommBytes     float64
	LocalAcc      float64
	CloudAcc      float64
	OverallAcc    float64
	DeviceMemByte int
}

// CloudOffloading reproduces Fig. 9: for each device-filter count, the
// exit threshold is calibrated so ≈75% of samples exit locally, and the
// accuracy/communication trade-off is recorded (E6). The paper's claim:
// offloading the hard ≈25% to the cloud buys ≈5% accuracy over the local
// exit alone, at every device model size.
func (r *Runner) CloudOffloading(filters []int) ([]OffloadPoint, error) {
	points := make([]OffloadPoint, 0, len(filters))
	for _, f := range filters {
		m, err := r.model(agg.MP, agg.CC, f)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig 9 f=%d: %w", f, err)
		}
		res := m.Evaluate(r.test, nil, r.opts.BatchSize)
		sweet := branchy.ThresholdForExitFraction(res.Outcomes(), branchy.Grid(100), 0.75)
		pol := branchy.NewPolicy(sweet.Threshold, 1)
		points = append(points, OffloadPoint{
			Filters:       f,
			Threshold:     sweet.Threshold,
			LocalExitPct:  sweet.ExitFrac * 100,
			CommBytes:     m.Cfg.CommCostBytes(sweet.ExitFrac),
			LocalAcc:      res.LocalAccuracy(),
			CloudAcc:      res.CloudAccuracy(),
			OverallAcc:    res.OverallAccuracy(pol),
			DeviceMemByte: m.DeviceMemoryBytes(),
		})
	}
	return points, nil
}

// FaultPoint is one bar group of Fig. 10: system accuracies when one
// specific device has failed.
type FaultPoint struct {
	FailedDevice int
	Individual   float64 // individual accuracy of the failed device
	Local        float64
	Cloud        float64
	Overall      float64
}

// FaultTolerance reproduces Fig. 10: the MP-CC DDNN is evaluated with each
// single device masked out in turn (E7). The paper's claim: accuracy stays
// high regardless of which device fails, dropping only ≈3% even when the
// best device fails.
func (r *Runner) FaultTolerance() ([]FaultPoint, error) {
	m, err := r.model(agg.MP, agg.CC, r.opts.Model.DeviceFilters)
	if err != nil {
		return nil, err
	}
	accs, err := r.IndividualAccuracies()
	if err != nil {
		return nil, err
	}
	pol := branchy.NewPolicy(0.8, 1)
	points := make([]FaultPoint, 0, m.Cfg.Devices)
	for d := 0; d < m.Cfg.Devices; d++ {
		mask := make([]bool, m.Cfg.Devices)
		for i := range mask {
			mask[i] = i != d
		}
		res := m.Evaluate(r.test, mask, r.opts.BatchSize)
		points = append(points, FaultPoint{
			FailedDevice: d,
			Individual:   accs[d],
			Local:        res.LocalAccuracy(),
			Cloud:        res.CloudAccuracy(),
			Overall:      res.OverallAccuracy(pol),
		})
	}
	return points, nil
}

// MultiFailure is an extension of §IV-G: it fails the k best devices (the
// reverse of Fig. 8's growth order) and reports the staged accuracy, to
// show graceful degradation under multiple simultaneous failures.
func (r *Runner) MultiFailure(maxFailures int) ([]FaultPoint, error) {
	m, err := r.model(agg.MP, agg.CC, r.opts.Model.DeviceFilters)
	if err != nil {
		return nil, err
	}
	order, err := r.devicesWorstToBest()
	if err != nil {
		return nil, err
	}
	pol := branchy.NewPolicy(0.8, 1)
	var points []FaultPoint
	for k := 0; k <= maxFailures && k < m.Cfg.Devices; k++ {
		mask := make([]bool, m.Cfg.Devices)
		for i := range mask {
			mask[i] = true
		}
		// Fail the k best devices (hardest case).
		for i := 0; i < k; i++ {
			mask[order[len(order)-1-i]] = false
		}
		res := m.Evaluate(r.test, mask, r.opts.BatchSize)
		points = append(points, FaultPoint{
			FailedDevice: k, // here: number of failed devices
			Local:        res.LocalAccuracy(),
			Cloud:        res.CloudAccuracy(),
			Overall:      res.OverallAccuracy(pol),
		})
	}
	return points, nil
}
