package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/dataset"
)

// ReproT is the exit threshold the record judges the staged system at:
// the paper's T = 0.8 (Table II), which every staged accuracy of this
// package already uses.
const ReproT = 0.8

// ReproEpsilon is the slack of the "staged accuracy at T is no worse than
// cloud-only" ordering: two points, a little over one test sample of the
// quick split.
const ReproEpsilon = 0.02

// Repro is a seeded record of the paper's claims at one experiment
// scale (ddnn-bench -exp repro, committed as REPRO.json). Training is
// deterministic, so two runs at the same options write the same record,
// and a change that moves training numerics moves it.
type Repro struct {
	Seed             int64 `json:"seed"`
	Epochs           int   `json:"epochs"`
	IndividualEpochs int   `json:"individual_epochs"`
	Train            int   `json:"train"`
	Test             int   `json:"test"`

	// TableI is the aggregation-scheme table (local/cloud accuracy).
	TableI []ReproScheme `json:"table1"`
	// Thresholds is the Table II sweep of the MP-CC DDNN.
	Thresholds []ThresholdRow `json:"thresholds"`
	// ChosenT is ReproT's row of a sweep that includes it.
	ChosenT         ThresholdRow `json:"chosen_t"`
	CloudOnlyAcc    float64      `json:"cloud_only_acc"`
	RawOffloadBytes int          `json:"raw_offload_bytes"`
	// Scaling is Fig. 8 (devices added worst to best); Individual holds
	// the per-device baselines.
	Scaling    []ScalingPoint `json:"fig8"`
	Individual []float64      `json:"individual"`
	// SingleFailure is Fig. 10; MultiFailure fails the k best devices.
	SingleFailure  []FaultPoint      `json:"single_failure"`
	MultiFailure   []FaultPoint      `json:"multi_failure"`
	MixedPrecision []AblationRow     `json:"mixed_precision"`
	Edge           *EdgeHierarchyRow `json:"edge"`
	// ClassDistribution is Fig. 6, over the training split.
	ClassDistribution []dataset.DeviceStats `json:"class_distribution"`
	// CloudOffloading is Fig. 9 at 1, 2, 4 and 8 device filters.
	CloudOffloading []OffloadPoint `json:"cloud_offloading"`
	// Comm is §IV-H at ReproT over the whole test split, measured on an
	// in-process cluster.
	Comm *CommReport `json:"comm"`
}

// ReproScheme is one Table I row with its scheme pair spelled out.
type ReproScheme struct {
	Schemes  string  `json:"schemes"`
	LocalAcc float64 `json:"local_acc"`
	CloudAcc float64 `json:"cloud_acc"`
}

// Ordering is one of the paper's qualitative claims checked on a record.
type Ordering struct {
	Name   string
	Holds  bool
	Detail string
}

// Repro runs every experiment the record holds. At QuickOptions it
// trains 20 DDNNs and six individual models.
func (r *Runner) Repro() (*Repro, error) {
	rep := &Repro{
		Seed:             r.opts.Data.Seed,
		Epochs:           r.opts.Epochs,
		IndividualEpochs: r.opts.IndividualEpochs,
		Train:            r.opts.Data.Train,
		Test:             r.opts.Data.Test,
		RawOffloadBytes:  r.opts.Model.RawOffloadBytes(),
	}
	rows, err := r.TableI()
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		rep.TableI = append(rep.TableI, ReproScheme{Schemes: row.Schemes(), LocalAcc: row.LocalAcc, CloudAcc: row.CloudAcc})
		if row.Local == agg.MP && row.Cloud == agg.CC {
			rep.CloudOnlyAcc = row.CloudAcc
		}
	}
	if rep.Thresholds, err = r.ThresholdSweep([]float64{0.1, 0.3, 0.5, 0.6, 0.7, ReproT, 0.9, 1.0}); err != nil {
		return nil, err
	}
	i := slices.IndexFunc(rep.Thresholds, func(row ThresholdRow) bool { return row.T == ReproT })
	if i < 0 {
		return nil, fmt.Errorf("experiments: the threshold sweep has no row at T=%.1f", ReproT)
	}
	rep.ChosenT = rep.Thresholds[i]
	if rep.Individual, err = r.IndividualAccuracies(); err != nil {
		return nil, err
	}
	if rep.Scaling, err = r.DeviceScaling(); err != nil {
		return nil, err
	}
	if rep.SingleFailure, err = r.FaultTolerance(); err != nil {
		return nil, err
	}
	if rep.MultiFailure, err = r.MultiFailure(4); err != nil {
		return nil, err
	}
	if rep.MixedPrecision, err = r.MixedPrecisionAblation(); err != nil {
		return nil, err
	}
	if rep.Edge, err = r.EdgeHierarchy(); err != nil {
		return nil, err
	}
	rep.ClassDistribution = r.ClassDistribution()
	if rep.CloudOffloading, err = r.CloudOffloading([]int{1, 2, 4, 8}); err != nil {
		return nil, err
	}
	if rep.Comm, err = r.CommunicationReduction(ReproT); err != nil {
		return nil, err
	}
	return rep, nil
}

// Orderings evaluates the paper's orderings on the record:
//   - "mp-local-ge-ap": MP local aggregation is at least as accurate as
//     AP (mean local accuracy over each scheme's three Table I rows);
//   - "ddnn-ge-best-device": the all-device DDNN's staged accuracy is at
//     least the best individual device's;
//   - "staged-ge-cloud-only": staged accuracy at ReproT is at least the
//     cloud-only accuracy less ReproEpsilon;
//   - "failures-monotone": staged accuracy never rises as more of the
//     best devices fail;
//   - "comm-20x": Eq. (1) bytes at ReproT are at least 20× below raw
//     offloading;
//   - "comm-20x-wire": the bytes measured on the device links at ReproT,
//     framing included, are at least 20× below raw offloading.
func (rep *Repro) Orderings() []Ordering {
	meanLocal := func(prefix string) float64 {
		sum, n := 0.0, 0
		for _, row := range rep.TableI {
			if strings.HasPrefix(row.Schemes, prefix+"-") {
				sum += row.LocalAcc
				n++
			}
		}
		return sum / float64(max(n, 1))
	}
	mp, ap := meanLocal("MP"), meanLocal("AP")
	bestDev := 0.0
	for _, acc := range rep.Individual {
		bestDev = math.Max(bestDev, acc)
	}
	ddnn := 0.0
	if n := len(rep.Scaling); n > 0 {
		ddnn = rep.Scaling[n-1].Overall
	}
	staged := rep.ChosenT.OverallAcc / 100
	rise := ""
	for k := 1; k < len(rep.MultiFailure); k++ {
		if prev, cur := rep.MultiFailure[k-1].Overall, rep.MultiFailure[k].Overall; cur > prev {
			rise += fmt.Sprintf(" %d→%d failed: %.4f→%.4f", k-1, k, prev, cur)
		}
	}
	bytes, wireBytes := rep.ChosenT.CommBytes, rep.Comm.MeasuredWireBytes
	raw := float64(rep.RawOffloadBytes)
	return []Ordering{
		{"mp-local-ge-ap", mp >= ap, fmt.Sprintf("MP %.4f, AP %.4f", mp, ap)},
		{"ddnn-ge-best-device", ddnn >= bestDev, fmt.Sprintf("DDNN %.4f, best device %.4f", ddnn, bestDev)},
		{"staged-ge-cloud-only", staged >= rep.CloudOnlyAcc-ReproEpsilon, fmt.Sprintf("T=%.1f %.4f, cloud-only %.4f, ε %.2f", ReproT, staged, rep.CloudOnlyAcc, ReproEpsilon)},
		{"failures-monotone", rise == "", "rises:" + cmp.Or(rise, " none")},
		{"comm-20x", 20*bytes <= raw, fmt.Sprintf("%.1f B at T=%.1f, raw %d B (%.1f×)", bytes, ReproT, rep.RawOffloadBytes, raw/bytes)},
		{"comm-20x-wire", 20*wireBytes <= raw, fmt.Sprintf("%.1f B on the wire at T=%.1f, raw %d B (%.1f×)", wireBytes, ReproT, rep.RawOffloadBytes, raw/wireBytes)},
	}
}

// FormatOrderings renders the orderings, one per line.
func FormatOrderings(os []Ordering) string {
	var sb strings.Builder
	for _, o := range os {
		verdict := "holds"
		if !o.Holds {
			verdict = "FAILS"
		}
		fmt.Fprintf(&sb, "%-22s %-5s  %s\n", o.Name, verdict, o.Detail)
	}
	return sb.String()
}
