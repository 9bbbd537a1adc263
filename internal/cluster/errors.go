package cluster

import (
	"context"
	"errors"
	"fmt"
)

// Typed serving errors. The root ddnn package re-exports these so callers can
// errors.Is against stable sentinels instead of matching strings.
var (
	// ErrCanceled reports that the session's context was canceled before
	// a classification was produced.
	ErrCanceled = errors.New("ddnn: session canceled")
	// ErrDeadlineExceeded reports that the session's context deadline
	// expired before a classification was produced.
	ErrDeadlineExceeded = errors.New("ddnn: session deadline exceeded")
	// ErrClosed reports an operation on a closed Engine or Gateway.
	ErrClosed = errors.New("ddnn: engine closed")
	// ErrNoSummaries reports that no device produced an exit summary for
	// the sample, so there is nothing to aggregate.
	ErrNoSummaries = errors.New("ddnn: no device produced a summary")
	// ErrCloudUnavailable reports that the sample missed the local exit
	// and the cloud round trip failed.
	ErrCloudUnavailable = errors.New("ddnn: cloud unavailable")
	// ErrEdgeUnavailable reports that the sample missed the local exit
	// and the edge tier — the next escalation stage of a three-tier
	// hierarchy — could not be reached.
	ErrEdgeUnavailable = errors.New("ddnn: edge unavailable")
	// ErrNoHealthyReplica reports that every replica of an upstream tier
	// (edge or cloud pool) is marked down by the heartbeat failure detector
	// or fenced by a rollout, so an escalation had no replica to run on.
	// It is always wrapped in the tier's sentinel
	// (ErrEdgeUnavailable or ErrCloudUnavailable).
	ErrNoHealthyReplica = errors.New("ddnn: no healthy replica")
	// ErrUploadUnsupported reports ClassifyUpload on an engine attached to
	// remote nodes: uploaded samples are staged in the in-process cluster's
	// shared store, which remote devices (owning their own sensors) do not
	// consult.
	ErrUploadUnsupported = errors.New("ddnn: uploads require an in-process engine")
	// ErrTooManyDevices reports a hierarchy with more devices than the
	// wire protocol's uint16 present-device masks can describe
	// (wire.MaxDevices); such configs are rejected at gateway
	// construction time instead of silently corrupting the masks.
	ErrTooManyDevices = errors.New("ddnn: hierarchy exceeds wire.MaxDevices devices")
	// ErrDeviceSlotMismatch reports a device-slot reference the model's
	// hierarchy cannot satisfy: more construction addresses than the
	// model has device slots, or an admission/removal naming a slot out
	// of range. The wrapping error names the expected and got counts.
	// (Fewer addresses than slots is not an error — the gateway starts
	// with a partial device set and admits the rest via registration.)
	ErrDeviceSlotMismatch = errors.New("ddnn: device slot mismatch")
	// ErrModelVersionUnknown reports a session pinned to a model version
	// the serving node's registry does not hold — wire error code 426. It
	// can only happen when a registry was mutated outside a rollout (e.g.
	// an eviction raced a very long session); rollouts install a version
	// on every node before any session can pin it.
	ErrModelVersionUnknown = errors.New("ddnn: model version unknown")
	// ErrDuplicateModelVersion reports registering a model under a
	// version number the registry already holds. Versions are immutable
	// once registered; pick a new number.
	ErrDuplicateModelVersion = errors.New("ddnn: model version already registered")
	// ErrModelConfigMismatch reports registering a model whose
	// architecture differs from the serving fleet's (anything beyond the
	// RNG seed). A rollout can swap weights, not topologies.
	ErrModelConfigMismatch = errors.New("ddnn: model config mismatch")
	// ErrRolloutInProgress reports a RolloutModel call while another
	// rollout is still running; rollouts are serialized.
	ErrRolloutInProgress = errors.New("ddnn: rollout already in progress")
	// ErrRolloutFailed reports a rollout aborted by a failed canary or an
	// unreachable replica. The fleet has been rolled back to the prior
	// active version; the wrapping error names the failing replica and
	// stage.
	ErrRolloutFailed = errors.New("ddnn: rollout failed and was rolled back")
)

// ctxErr maps a context error onto the matching typed sentinel while
// keeping the original error in the chain, so both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) hold.
func ctxErr(err error) error {
	switch {
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return err
	}
}
