package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/modelio"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Rollout states, as reported by Engine.RolloutState.
const (
	// RolloutIdle means no rollout is running and the last one (if any)
	// completed successfully.
	RolloutIdle = "idle"
	// RolloutRolling means a rollout is flipping replicas right now.
	RolloutRolling = "rolling"
	// RolloutRolledBack means the last rollout failed a canary (or lost a
	// replica) and the fleet was restored to the prior active version.
	RolloutRolledBack = "rolled_back"
)

const (
	rolloutIdle int32 = iota
	rolloutRolling
	rolloutRolledBack
)

// canarySamples is the size of the held-out batch every freshly flipped
// replica must classify bit-identically to the staged reference before
// the rollout proceeds past it.
const canarySamples = 8

// RegisterModel registers an already-decoded model under an explicit
// version number. The version must be new and the architecture must
// match the serving fleet's; the active version does not change — use
// RolloutModel to start serving it.
func (e *Engine) RegisterModel(version uint64, m *core.Model) error {
	return e.reg.register(version, m)
}

// RegisterModelBytes decodes a versioned model artifact (modelio v2
// format) and registers it under its stamped version, which is
// returned. Decode failures surface modelio's typed errors
// (modelio.ErrCorruptModel, modelio.ErrVersionUnsupported); a version
// collision or architecture mismatch surfaces
// ErrDuplicateModelVersion / ErrModelConfigMismatch.
func (e *Engine) RegisterModelBytes(data []byte) (uint64, error) {
	m, v, err := modelio.LoadVersioned(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	if err := e.reg.register(v, m); err != nil {
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

// SetRolloutTamper installs a hook called for every replica a rollout is
// about to canary: a non-nil return replaces the replica's copy of the
// new version with the returned model, making the canary compare that
// (presumably corrupt) copy against the staged reference. Chaos tests
// use it to plant canary failures; pass nil to clear.
func (e *Engine) SetRolloutTamper(f func(tier wire.ExitPoint, replica int) *core.Model) {
	e.tamperMu.Lock()
	e.tamper = f
	e.tamperMu.Unlock()
}

func (e *Engine) tamperFor(tier wire.ExitPoint, replica int) *core.Model {
	e.tamperMu.Lock()
	f := e.tamper
	e.tamperMu.Unlock()
	if f == nil {
		return nil
	}
	return f(tier, replica)
}

// RolloutModel performs a zero-downtime rolling reload of the fleet onto
// an already-registered model version:
//
//  1. The version is installed (but not activated) in every node's
//     registry, so sessions pinned to it resolve anywhere mid-rollout.
//  2. One upstream replica at a time — edge replicas first for
//     three-tier hierarchies, then cloud replicas — is fenced out of its
//     scheduling pool, drained of in-flight sessions, flipped to the new
//     version, and canaried: it must reproduce the staged reference
//     outputs for a held-out sample batch bit-identically, with finite
//     probabilities. Only then is it unfenced and the next replica
//     rolled.
//  3. When every replica passes, the engine and the gateway flip their
//     active pointers, then every node does; new sessions pin the new
//     version from then on.
//
// Sessions in flight during the rollout are never disturbed: each pinned
// its model version (and resolved weights) at session start, and fencing
// only diverts new sessions. A failed canary — or a replica lost
// mid-rollout — aborts the rollout and rolls the whole fleet back to the
// prior active version; the returned error wraps ErrRolloutFailed and
// names the failing replica and stage. Rollouts are serialized; a
// concurrent call fails fast with ErrRolloutInProgress.
//
// RolloutModel requires an in-process engine (NewEngine); engines
// attached to remote nodes cannot reach into their registries.
func (e *Engine) RolloutModel(ctx context.Context, version uint64) error {
	if len(e.devices) == 0 {
		return fmt.Errorf("cluster: rollout requires an in-process engine")
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
	prev := e.reg.activeVersion()
	if version == prev {
		return nil // already serving this version
	}

	e.rolloutState.Store(rolloutRolling)

	// Stage everywhere first: a session pinned to the new version by an
	// already-flipped replica must resolve on nodes still serving the old
	// active.
	e.installEverywhere(version, next)

	// The staged reference the canaries compare against: the engine's own
	// copy of the new version over the held-out canary batch.
	ref := next.Evaluate(e.canary, nil, canarySamples)

	var failErr error
	for i := 0; i < len(e.Edges()) && failErr == nil; i++ {
		failErr = e.rollReplica(ctx, wire.ExitEdge, i, version, ref)
	}
	for i := 0; i < len(e.Clouds()) && failErr == nil; i++ {
		failErr = e.rollReplica(ctx, wire.ExitCloud, i, version, ref)
	}
	if failErr != nil {
		e.rollbackTo(prev, version, next)
		e.rolloutState.Store(rolloutRolledBack)
		return fmt.Errorf("%w: %w", ErrRolloutFailed, failErr)
	}

	// Flip the gateway (and engine) before the fleet: a replica
	// hard-restarted mid-rollout seeds its registry from the gateway's
	// under the node lock, and the fleet walk snapshots the slots under
	// that same lock, so every restart/flip interleaving leaves the fleet
	// on the new version. Re-installing catches restarted replicas too.
	e.reg.setActive(version)
	e.gw.reg.setActive(version)
	for _, n := range e.fleet() {
		n.reg.install(version, next)
		n.reg.setActive(version)
	}
	e.rolloutState.Store(rolloutIdle)
	return nil
}

// installEverywhere stages a version in every node registry without
// activating it anywhere — the gateway's first, so a replica restarted
// meanwhile adopts it.
func (e *Engine) installEverywhere(version uint64, m *core.Model) {
	e.gw.reg.install(version, m)
	for _, n := range e.fleet() {
		n.reg.install(version, m)
	}
}

// rollReplica fences, drains, flips and canaries one upstream replica.
func (e *Engine) rollReplica(ctx context.Context, tier wire.ExitPoint, i int, version uint64, ref *core.EvalResult) error {
	e.setFence(tier, i, true)
	defer e.setFence(tier, i, false)

	// Re-fetch the replica after fencing: a chaos restart may have
	// replaced the node since the rollout started.
	var n *server
	if tier == wire.ExitEdge {
		n = &e.Edges()[i].server
	} else {
		n = &e.Clouds()[i].server
	}

	// Drain: wait for the replica's in-flight classifications to settle.
	// Fencing already diverts new sessions to the other replicas.
	if err := awaitIdle(ctx, &n.active); err != nil {
		return fmt.Errorf("%v replica %d: drain: %w", tier, i, err)
	}

	// Swap: a planted tamper (chaos/test hook) can corrupt this replica's
	// copy right before the flip — exactly the failure the canary exists
	// to catch.
	if bad := e.tamperFor(tier, i); bad != nil {
		n.reg.install(version, bad)
	}
	if err := n.reg.setActive(version); err != nil {
		return fmt.Errorf("%v replica %d: activate: %w", tier, i, err)
	}

	// Canary: the replica's resolved copy of the new version must
	// reproduce the staged reference bit-identically with finite
	// probabilities before traffic returns.
	m, _, err := n.reg.resolve(version)
	if err != nil {
		return fmt.Errorf("%v replica %d: canary resolve: %w", tier, i, err)
	}
	if err := canaryCompare(ref, m.Evaluate(e.canary, nil, canarySamples)); err != nil {
		return fmt.Errorf("%v replica %d: canary: %w", tier, i, err)
	}
	return nil
}

// setFence flips a tier replica's scheduling fence in every pool that
// routes to it: the gateway's upstream pool for the tier the gateway
// escalates to, and each edge replica's cloud pool for the cloud tier of
// a three-tier hierarchy.
func (e *Engine) setFence(tier wire.ExitPoint, i int, fenced bool) {
	if tier == e.gw.upstreamExit() {
		e.gw.upstream.setFenced(i, fenced)
		return
	}
	// Cloud tier behind the edge tier: fence in every edge's pool.
	for _, ed := range e.Edges() {
		if ed.cloud != nil {
			ed.cloud.setFenced(i, fenced)
		}
	}
}

// rollbackTo restores the whole fleet to the prior active version and
// repairs any replica registry a tamper hook corrupted, re-installing
// the engine's good copy of the attempted version so stale pinned
// sessions can still resolve it.
func (e *Engine) rollbackTo(prev, attempted uint64, good *core.Model) {
	prevModel := e.reg.model(prev)
	restore := func(r *modelRegistry) {
		if prevModel != nil {
			r.install(prev, prevModel)
		}
		r.install(attempted, good) // overwrite a tampered copy
		r.setActive(prev)
	}
	// Gateway first, for the same reason RolloutModel flips it before
	// refreshing replicas: a node restarted mid-rollback seeds from the
	// gateway's registry.
	e.reg.setActive(prev)
	restore(e.gw.reg)
	for _, n := range e.fleet() {
		restore(n.reg)
	}
}

// VerifyModelConvergence checks that every node in the hierarchy is
// serving the engine's active model version, returning an error naming
// the first divergent node. Chaos harnesses call it after healing to
// prove rollouts and restarts interleaved without splitting the fleet.
func (e *Engine) VerifyModelConvergence() error {
	want := e.reg.activeVersion()
	if got := e.gw.reg.activeVersion(); got != want {
		return fmt.Errorf("cluster: gateway active version %d, engine %d", got, want)
	}
	for i, n := range e.fleet() {
		if got := n.reg.activeVersion(); got != want {
			return fmt.Errorf("cluster: %s (fleet node %d) active version %d, engine %d", n.name, i, got, want)
		}
	}
	return nil
}

// canaryCompare checks a freshly flipped replica's outputs against the
// staged reference: every probability row must be finite and bit-
// identical, and every argmax must agree.
func canaryCompare(ref, got *core.EvalResult) error {
	check := func(stage string, want, have [][]float32) error {
		if len(want) != len(have) {
			return fmt.Errorf("%s: %d rows, want %d", stage, len(have), len(want))
		}
		for i := range want {
			if len(want[i]) != len(have[i]) {
				return fmt.Errorf("%s row %d: %d classes, want %d", stage, i, len(have[i]), len(want[i]))
			}
			for j := range want[i] {
				if math.IsNaN(float64(have[i][j])) || math.IsInf(float64(have[i][j]), 0) {
					return fmt.Errorf("%s row %d: non-finite probability", stage, i)
				}
				if want[i][j] != have[i][j] {
					return fmt.Errorf("%s row %d class %d: prob %g, want %g", stage, i, j, have[i][j], want[i][j])
				}
			}
			if core.Argmax(want[i]) != core.Argmax(have[i]) {
				return fmt.Errorf("%s row %d: argmax %d, want %d", stage, i, core.Argmax(have[i]), core.Argmax(want[i]))
			}
		}
		return nil
	}
	if err := check("local", ref.LocalProbs, got.LocalProbs); err != nil {
		return err
	}
	if ref.EdgeProbs != nil {
		if err := check("edge", ref.EdgeProbs, got.EdgeProbs); err != nil {
			return err
		}
	}
	return check("cloud", ref.CloudProbs, got.CloudProbs)
}
