package experiments

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/core"
)

// AblationRow compares one DDNN variant against the paper's default.
type AblationRow struct {
	Name           string
	LocalAcc       float64
	CloudAcc       float64
	Overall        float64 // staged accuracy at T=0.8
	DeviceMemBytes int
	CloudMemBytes  int
}

// MixedPrecisionAblation implements the §VI future-work proposal: keep the
// binary device sections (required by device memory limits) but let the
// cloud use floating-point layers. It trains the all-binary baseline and
// the mixed-precision variant and compares accuracy and memory.
func (r *Runner) MixedPrecisionAblation() ([]AblationRow, error) {
	variants := []struct {
		name       string
		floatCloud bool
	}{
		{"binary cloud (paper default)", false},
		{"float cloud (mixed precision)", true},
	}
	pol := branchy.NewPolicy(0.8, 1)
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		m, err := r.variantModel(v.floatCloud)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		res := m.Evaluate(r.test, nil, r.opts.BatchSize)
		rows = append(rows, AblationRow{
			Name:           v.name,
			LocalAcc:       res.LocalAccuracy(),
			CloudAcc:       res.CloudAccuracy(),
			Overall:        res.OverallAccuracy(pol),
			DeviceMemBytes: m.DeviceMemoryBytes(),
			CloudMemBytes:  m.CloudMemoryBytes(),
		})
	}
	return rows, nil
}

func (r *Runner) variantModel(floatCloud bool) (*core.Model, error) {
	if !floatCloud {
		return r.model(agg.MP, agg.CC, r.opts.Model.DeviceFilters)
	}
	key := "mixed-precision"
	r.mu.Lock()
	m, ok := r.models[key]
	r.mu.Unlock()
	if ok {
		return m, nil
	}
	cfg := r.opts.Model
	cfg.LocalAgg, cfg.CloudAgg = agg.MP, agg.CC
	cfg.FloatCloud = true
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = r.opts.Epochs
	tc.BatchSize = r.opts.BatchSize
	if _, err := m.Train(r.train, tc); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.models[key] = m
	r.mu.Unlock()
	return m, nil
}

// EdgeHierarchyRow reports the three-exit hierarchy of Fig. 2(d)/(e).
type EdgeHierarchyRow struct {
	LocalAcc, EdgeAcc, CloudAcc float64
	Overall                     float64 // staged with T_local=0.8, T_edge=0.8
	ExitFractions               []float64
}

// edgeModel trains (or returns the cached) device-edge-cloud DDNN of
// configuration (e) of Fig. 2, shared by every edge-tier experiment.
func (r *Runner) edgeModel() (*core.Model, error) {
	key := "edge-hierarchy"
	r.mu.Lock()
	m, ok := r.models[key]
	r.mu.Unlock()
	if ok {
		return m, nil
	}
	cfg := r.opts.Model
	cfg.UseEdge = true
	cfg.LocalAgg, cfg.EdgeAgg, cfg.CloudAgg = agg.MP, agg.CC, agg.CC
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = r.opts.Epochs
	tc.BatchSize = r.opts.BatchSize
	if _, err := m.Train(r.train, tc); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.models[key] = m
	r.mu.Unlock()
	return m, nil
}

// EdgeHierarchy trains a device-edge-cloud DDNN (configuration (e) of
// Fig. 2) and reports accuracy at all three exits plus staged inference
// across the full hierarchy. The paper evaluates configuration (c) only
// and leaves the edge tier as a described capability; this experiment
// exercises it end to end.
func (r *Runner) EdgeHierarchy() (*EdgeHierarchyRow, error) {
	m, err := r.edgeModel()
	if err != nil {
		return nil, err
	}
	res := m.Evaluate(r.test, nil, r.opts.BatchSize)
	pol := branchy.NewPolicy(0.8, 0.8, 1)
	return &EdgeHierarchyRow{
		LocalAcc:      res.LocalAccuracy(),
		EdgeAcc:       res.EdgeAccuracy(),
		CloudAcc:      res.CloudAccuracy(),
		Overall:       res.OverallAccuracy(pol),
		ExitFractions: res.ExitFractions(pol),
	}, nil
}
