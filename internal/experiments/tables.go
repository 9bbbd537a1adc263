package experiments

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/branchy"
)

// TableIRow is one row of Table I: local/cloud aggregation schemes and the
// accuracy of each exit when 100% of samples exit there.
type TableIRow struct {
	Local, Cloud agg.Scheme
	LocalAcc     float64
	CloudAcc     float64
}

// Schemes renders the row's scheme pair in the paper's notation, e.g.
// "MP-CC".
func (r TableIRow) Schemes() string {
	return fmt.Sprintf("%v-%v", r.Local, r.Cloud)
}

// TableI trains one DDNN per aggregation-scheme combination and reports
// local and cloud exit accuracy over the full test set (E1). The paper's
// ordering has MP-CC best overall, which is why the remaining experiments
// use it.
func (r *Runner) TableI() ([]TableIRow, error) {
	// Order as in the paper's Table I.
	pairs := [][2]agg.Scheme{
		{agg.MP, agg.MP}, {agg.MP, agg.CC}, {agg.AP, agg.AP},
		{agg.AP, agg.CC}, {agg.CC, agg.CC}, {agg.AP, agg.MP},
		{agg.MP, agg.AP}, {agg.CC, agg.MP}, {agg.CC, agg.AP},
	}
	rows := make([]TableIRow, 0, len(pairs))
	for _, p := range pairs {
		m, err := r.model(p[0], p[1], r.opts.Model.DeviceFilters)
		if err != nil {
			return nil, fmt.Errorf("experiments: Table I %v-%v: %w", p[0], p[1], err)
		}
		res := m.Evaluate(r.test, nil, r.opts.BatchSize)
		rows = append(rows, TableIRow{
			Local:    p[0],
			Cloud:    p[1],
			LocalAcc: res.LocalAccuracy(),
			CloudAcc: res.CloudAccuracy(),
		})
	}
	return rows, nil
}

// ThresholdRow is one row of Table II.
type ThresholdRow struct {
	T            float64
	LocalExitPct float64 // percentage of samples exiting locally
	OverallAcc   float64 // percentage
	CommBytes    float64 // Eq. (1) expected bytes per sample
}

// ThresholdSweep evaluates the MP-CC DDNN at each threshold in grid,
// reporting local exit percentage, overall accuracy and the Eq. (1)
// communication cost (E2; Fig. 7 plots the same curve on a denser
// grid).
func (r *Runner) ThresholdSweep(grid []float64) ([]ThresholdRow, error) {
	m, err := r.model(agg.MP, agg.CC, r.opts.Model.DeviceFilters)
	if err != nil {
		return nil, fmt.Errorf("experiments: threshold sweep: %w", err)
	}
	res := m.Evaluate(r.test, nil, r.opts.BatchSize)
	rows := make([]ThresholdRow, 0, len(grid))
	for _, T := range grid {
		pol := branchy.NewPolicy(T, 1)
		l := res.LocalExitFraction(pol)
		rows = append(rows, ThresholdRow{
			T:            T,
			LocalExitPct: l * 100,
			OverallAcc:   res.OverallAccuracy(pol) * 100,
			CommBytes:    m.Cfg.CommCostBytes(l),
		})
	}
	return rows, nil
}
