package core

import (
	"sync"

	"github.com/ddnn/ddnn-go/internal/dataset"
)

// referenceCacheLimit bounds a Reference's cache. Its callers observe a
// handful of presence masks and model versions, so the working set is
// tiny; a runaway recomputes rather than grows without bound.
const referenceCacheLimit = 256

// Reference is the staged oracle that correctness checks compare the
// serving system against: Evaluate of one dataset by a model version
// under a device-presence mask, cached per (mask, version). The base
// model is version 1; AddModel registers others. It is safe for
// concurrent use.
type Reference struct {
	ds *dataset.Dataset

	mu     sync.Mutex
	models map[uint64]*Model
	cache  map[referenceKey]*EvalResult
}

type referenceKey struct {
	mask    string
	version uint64
}

// NewReference returns the oracle for ds with base registered as
// version 1.
func NewReference(base *Model, ds *dataset.Dataset) *Reference {
	return &Reference{
		ds:     ds,
		models: map[uint64]*Model{1: base},
		cache:  make(map[referenceKey]*EvalResult),
	}
}

// AddModel registers the weights behind a model version, so results
// stamped with that version check against the right evaluation.
func (r *Reference) AddModel(version uint64, m *Model) {
	r.mu.Lock()
	r.models[version] = m
	r.mu.Unlock()
}

// For returns the evaluation of the whole dataset by the model version
// under the presence mask (nil means every device present), or nil when
// the version was never registered.
func (r *Reference) For(present []bool, version uint64) *EvalResult {
	key := referenceKey{mask: maskKey(present), version: version}
	r.mu.Lock()
	if er, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return er
	}
	m := r.models[version]
	r.mu.Unlock()
	if m == nil {
		return nil
	}
	// Evaluate outside the lock — it is the expensive part — and let a
	// concurrent duplicate win the race benignly.
	var mask []bool
	if present != nil {
		mask = append(mask, present...)
	}
	er := m.Evaluate(r.ds, mask, 32)
	r.mu.Lock()
	if len(r.cache) < referenceCacheLimit {
		r.cache[key] = er
	}
	r.mu.Unlock()
	return er
}

// maskKey renders a presence mask as a cache key.
func maskKey(present []bool) string {
	b := make([]byte, len(present))
	for i, p := range present {
		b[i] = '0'
		if p {
			b[i] = '1'
		}
	}
	return string(b)
}
