package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/modelio"
)

// Rollout states, as reported by Engine.RolloutState.
const (
	// RolloutIdle means no rollout is running and the last one (if any)
	// completed successfully.
	RolloutIdle = "idle"
	// RolloutRolling means a rollout is running its canary right now.
	RolloutRolling = "rolling"
	// RolloutRolledBack means the last rollout was refused: its canary
	// failed, and the fleet never left the prior active version.
	RolloutRolledBack = "rolled_back"
)

const (
	rolloutIdle int32 = iota
	rolloutRolling
	rolloutRolledBack
)

// canarySamples is the size of the held-out batch a rollout evaluates
// the candidate version on before it flips the active pointer.
const canarySamples = 8

// RegisterModel registers an already-decoded model under an explicit
// version number. The version must be new and the architecture must
// match the serving fleet's; the active version does not change — use
// RolloutModel to start serving it. Like RolloutModel it requires an
// in-process engine: an attached engine returns ErrRolloutUnsupported,
// since a version its remote nodes never hold could never roll out.
func (e *Engine) RegisterModel(version uint64, m *core.Model) error {
	if len(e.devices) == 0 {
		return ErrRolloutUnsupported
	}
	return e.reg.register(version, m)
}

// RegisterModelBytes decodes a versioned model artifact (modelio v2
// format) and registers it under its stamped version, which is
// returned. Decode failures surface modelio's typed errors
// (modelio.ErrCorruptModel, modelio.ErrVersionUnsupported); a version
// collision or architecture mismatch surfaces
// ErrDuplicateModelVersion / ErrModelConfigMismatch, and an attached
// engine ErrRolloutUnsupported (see RegisterModel).
func (e *Engine) RegisterModelBytes(data []byte) (uint64, error) {
	m, v, err := modelio.LoadVersioned(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	if err := e.RegisterModel(v, m); err != nil {
		return 0, err
	}
	return v, nil
}

// ModelVersions returns the versions the engine's registry holds, in
// ascending order.
func (e *Engine) ModelVersions() []uint64 { return e.reg.versions() }

// ModelVersion returns the fleet's active model version.
func (e *Engine) ModelVersion() uint64 { return e.reg.activeVersion() }

// RolloutState reports the lifecycle state of the model rollout machine:
// RolloutIdle, RolloutRolling or RolloutRolledBack.
func (e *Engine) RolloutState() string {
	switch e.rolloutState.Load() {
	case rolloutRolling:
		return RolloutRolling
	case rolloutRolledBack:
		return RolloutRolledBack
	default:
		return RolloutIdle
	}
}

// RolloutModel makes an already-registered model version the active
// one. It checks the version first: the held-out canary batch runs
// through the version's layered forward (core.Model.Evaluate) once, and
// a non-finite probability at any exit refuses the rollout with
// ErrRolloutFailed, leaving the prior version active. Otherwise one
// setActive on the engine's registry — the one every in-process node and
// the gateway share — flips the whole fleet at once, and new sessions
// pin the new version from then on.
//
// Sessions in flight are never disturbed: each pinned its model version
// (and resolved weights) at session start, and the registry keeps the
// prior version. Rollouts are serialized; a concurrent call fails fast
// with ErrRolloutInProgress. Nothing waits, so the context is unused.
//
// RolloutModel requires an in-process engine (NewEngine): an attached
// engine's remote nodes hold their own registries, so it returns
// ErrRolloutUnsupported.
func (e *Engine) RolloutModel(_ context.Context, version uint64) error {
	if len(e.devices) == 0 {
		return ErrRolloutUnsupported
	}
	if version == 0 {
		return fmt.Errorf("cluster: rollout needs an explicit version: %w", ErrModelVersionUnknown)
	}
	if !e.rolloutMu.TryLock() {
		return ErrRolloutInProgress
	}
	defer e.rolloutMu.Unlock()

	next, _, err := e.reg.resolve(version)
	if err != nil {
		return err
	}
	if version == e.reg.activeVersion() {
		return nil // already serving this version
	}
	e.rolloutState.Store(rolloutRolling)
	if err := finiteProbs(next.Evaluate(e.canary, nil, canarySamples)); err != nil {
		e.rolloutState.Store(rolloutRolledBack)
		return fmt.Errorf("%w: version %d: %w", ErrRolloutFailed, version, err)
	}
	if err := e.reg.setActive(version); err != nil {
		e.rolloutState.Store(rolloutRolledBack)
		return err
	}
	e.rolloutState.Store(rolloutIdle)
	return nil
}

// finiteProbs checks that every exit probability of a candidate
// version's canary batch is finite.
func finiteProbs(r *core.EvalResult) error {
	for _, exit := range []struct {
		name  string
		probs [][]float32
	}{{"local", r.LocalProbs}, {"edge", r.EdgeProbs}, {"cloud", r.CloudProbs}} {
		for i, row := range exit.probs {
			for _, p := range row {
				if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
					return fmt.Errorf("canary sample %d: non-finite %s exit probability", i, exit.name)
				}
			}
		}
	}
	return nil
}
