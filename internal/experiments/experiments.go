// Package experiments reproduces the paper's evaluation (§IV) on the
// synthetic MVMC stand-in as one seeded record, Repro (committed as
// REPRO.json, retaken by ddnn-bench -exp repro):
//
//	Table I  — accuracy of the nine aggregation-scheme combinations
//	Table II — exit-threshold sweep: local exit %, overall accuracy and
//	           Eq. (1) communication cost
//	Fig. 6   — per-device class distribution of the dataset
//	Fig. 8   — accuracy scaling as end devices are added worst→best
//	Fig. 9   — accuracy vs. communication as device filters grow
//	Fig. 10  — fault tolerance under single-device failure
//	§IV-H    — >20× communication reduction vs. raw offloading, analytic
//	           and measured on a running cluster
//
// plus multi-device failure and the mixed-precision and edge-tier
// extensions. A Runner caches trained models so experiments sharing a
// configuration (e.g. Table II reusing Table I's MP-CC model) train once.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
)

// Options control experiment scale. The paper trains every DDNN for 100
// epochs; reduced epoch counts preserve the qualitative shapes at a
// fraction of the single-core wall-clock cost.
type Options struct {
	// Epochs trains each DDNN variant.
	Epochs int
	// IndividualEpochs trains each per-device baseline model.
	IndividualEpochs int
	// BatchSize for all training.
	BatchSize int
	// Data configures the synthetic MVMC generator.
	Data dataset.Config
	// Model is the base DDNN configuration (aggregation schemes and
	// filter counts are overridden per experiment).
	Model core.Config
}

// QuickOptions returns the scale the record is taken at: 6 epochs (5
// per individual model) on 200 training and 60 test samples, far less
// training than the paper's 100 epochs on the same code paths.
func QuickOptions() Options {
	data := dataset.DefaultConfig()
	data.Train, data.Test = 200, 60
	return Options{
		Epochs:           6,
		IndividualEpochs: 5,
		BatchSize:        32,
		Data:             data,
		Model:            core.DefaultConfig(),
	}
}

// Runner executes experiments over one dataset, caching trained models.
type Runner struct {
	opts  Options
	train *dataset.Dataset
	test  *dataset.Dataset

	mu          sync.Mutex
	models      map[string]*core.Model
	individuals map[int]*core.IndividualModel
	indAcc      []float64 // individual accuracy per device, computed once
}

// NewRunner generates the dataset and prepares an empty model cache.
func NewRunner(opts Options) (*Runner, error) {
	train, test, err := dataset.Generate(opts.Data)
	if err != nil {
		return nil, err
	}
	return &Runner{
		opts:        opts,
		train:       train,
		test:        test,
		models:      make(map[string]*core.Model),
		individuals: make(map[int]*core.IndividualModel),
	}, nil
}

// Train and Test expose the generated splits.
func (r *Runner) Train() *dataset.Dataset { return r.train }

// Test returns the held-out split.
func (r *Runner) Test() *dataset.Dataset { return r.test }

// model trains (or returns a cached) DDNN with the given overrides on the
// full training set.
func (r *Runner) model(local, cloud agg.Scheme, filters int) (*core.Model, error) {
	key := fmt.Sprintf("%v-%v-f%d", local, cloud, filters)
	r.mu.Lock()
	m, ok := r.models[key]
	r.mu.Unlock()
	if ok {
		return m, nil
	}
	cfg := r.opts.Model
	cfg.LocalAgg, cfg.CloudAgg, cfg.DeviceFilters = local, cloud, filters
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

// individual trains (or returns a cached) per-device baseline model.
func (r *Runner) individual(device int) (*core.IndividualModel, error) {
	r.mu.Lock()
	im, ok := r.individuals[device]
	r.mu.Unlock()
	if ok {
		return im, nil
	}
	im, err := core.NewIndividualModel(r.opts.Model, device)
	if err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = r.opts.IndividualEpochs
	tc.BatchSize = r.opts.BatchSize
	if _, err := im.Train(r.train, tc); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.individuals[device] = im
	r.mu.Unlock()
	return im, nil
}

// IndividualAccuracies returns the test accuracy of each device's
// separately trained model (the "Individual" measure of §III-F).
func (r *Runner) IndividualAccuracies() ([]float64, error) {
	r.mu.Lock()
	cached := r.indAcc
	r.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	accs := make([]float64, r.opts.Model.Devices)
	for d := range accs {
		im, err := r.individual(d)
		if err != nil {
			return nil, err
		}
		accs[d] = im.Accuracy(r.test, r.opts.BatchSize)
	}
	r.mu.Lock()
	r.indAcc = accs
	r.mu.Unlock()
	return accs, nil
}

// devicesWorstToBest returns device indices sorted by individual accuracy
// ascending, the order Fig. 8 adds devices in.
func (r *Runner) devicesWorstToBest() ([]int, error) {
	accs, err := r.IndividualAccuracies()
	if err != nil {
		return nil, err
	}
	order := make([]int, len(accs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return accs[order[a]] < accs[order[b]] })
	return order, nil
}
