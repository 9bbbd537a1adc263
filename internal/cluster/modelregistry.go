package cluster

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ddnn/ddnn-go/internal/core"
)

// maxRegistryVersions bounds how many loaded model versions a registry
// retains. When a registration would exceed it, the oldest version that
// is neither active nor the one being registered is evicted.
const maxRegistryVersions = 8

// modelRegistry holds the loaded model versions a process can resolve,
// plus its active pointer. An in-process engine has exactly one: the
// engine, its gateway and every device, edge and cloud node it starts
// (restarted ones included) share it, so a rollout is one setActive and
// no two nodes can disagree on what is active. A ddnn-node process owns
// its own, started at its model file's version stamp. Models are frozen
// read-only after load.
type modelRegistry struct {
	mu     sync.RWMutex
	models map[uint64]*core.Model
	order  []uint64 // insertion order, for eviction
	active uint64
}

// newModelRegistry returns a registry holding base as the active version.
func newModelRegistry(base *core.Model, version uint64) *modelRegistry {
	if version == 0 {
		version = 1
	}
	return &modelRegistry{
		models: map[uint64]*core.Model{version: base},
		order:  []uint64{version},
		active: version,
	}
}

// configsMatch reports whether two configs describe the same
// architecture. The RNG seed is ignored: it only picks the random init a
// training run started from, and two checkpoints of the same hierarchy
// legitimately differ in it.
func configsMatch(a, b core.Config) bool {
	a.Seed, b.Seed = 0, 0
	return a == b
}

// register adds a model under a new version number. The version must be
// unused and the model's architecture must match the registry's active
// model; registering never changes the active pointer. When the registry
// is full the oldest inactive version is evicted.
func (r *modelRegistry) register(version uint64, m *core.Model) error {
	if version == 0 {
		return fmt.Errorf("cluster: version 0 is reserved for \"active\": %w", ErrModelVersionUnknown)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[version]; dup {
		return fmt.Errorf("cluster: version %d: %w", version, ErrDuplicateModelVersion)
	}
	if !configsMatch(m.Cfg, r.models[r.active].Cfg) {
		return fmt.Errorf("cluster: version %d: %w", version, ErrModelConfigMismatch)
	}
	r.models[version] = m
	r.order = append(r.order, version)
	r.evictLocked(version)
	return nil
}

// evictLocked drops the oldest version that is neither active nor keep
// (the one just registered) once the registry holds more than
// maxRegistryVersions; register adds one version at a time, so one
// eviction restores the bound.
func (r *modelRegistry) evictLocked(keep uint64) {
	if len(r.order) <= maxRegistryVersions {
		return
	}
	for i, v := range r.order {
		if v != r.active && v != keep {
			delete(r.models, v)
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

// resolve returns the model pinned to a session's version; version 0
// means "whatever is active right now". It also reports the concrete
// version resolved, so the caller can stamp it into the session.
func (r *modelRegistry) resolve(version uint64) (*core.Model, uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if version == 0 {
		version = r.active
	}
	m, ok := r.models[version]
	if !ok {
		return nil, 0, fmt.Errorf("cluster: model version %d: %w", version, ErrModelVersionUnknown)
	}
	return m, version, nil
}

// setActive flips the active pointer to an already-registered version.
func (r *modelRegistry) setActive(version uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[version]; !ok {
		return fmt.Errorf("cluster: activate version %d: %w", version, ErrModelVersionUnknown)
	}
	r.active = version
	return nil
}

// activeVersion returns the currently active version number.
func (r *modelRegistry) activeVersion() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.active
}

// versions returns the registered version numbers in ascending order.
func (r *modelRegistry) versions() []uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]uint64(nil), r.order...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
