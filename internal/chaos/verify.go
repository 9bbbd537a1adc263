package chaos

import (
	"errors"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Verifier checks every observation the traffic drivers make against
// the harness's correctness invariants:
//
//   - every completed classification is bit-identical to the staged
//     core reference (core.Model.Evaluate) under the observed
//     device-presence mask, at the observed exit;
//   - the class is the argmax of the returned probabilities and the
//     exit obeys the granted shed level;
//   - engine errors are typed sentinels, never ad-hoc strings;
//   - HTTP responses stay inside the documented status set — a 500 is
//     an escaped invariant violation by definition.
//
// Violations accumulate on the run's Report. All methods are safe for
// concurrent use.
type Verifier struct {
	model   *core.Model
	ds      *dataset.Dataset
	devices int
	report  *Report
	ref     *core.Reference
}

func newVerifier(model *core.Model, ds *dataset.Dataset, report *Report) *Verifier {
	return &Verifier{
		model:   model,
		ds:      ds,
		devices: model.Cfg.Devices,
		report:  report,
		ref:     core.NewReference(model, ds),
	}
}

// AddModel registers the weights behind a model version, so results
// stamped with that version verify against the right reference. The
// base model is pre-registered as version 1.
func (v *Verifier) AddModel(version uint64, m *core.Model) { v.ref.AddModel(version, m) }

// CheckResult verifies one completed classification. refID is the
// dataset row the sample's views came from — the sample ID itself for
// dataset traffic, the staged row for raw uploads (whose result IDs
// live in the upload space).
func (v *Verifier) CheckResult(src string, res *cluster.Result, level cluster.ShedLevel, refID int) {
	defer v.report.countChecked()
	if refID < 0 || refID >= v.ds.Len() {
		v.report.violate("%s: reference id %d out of range [0,%d)", src, refID, v.ds.Len())
		return
	}
	if len(res.Present) != v.devices {
		v.report.violate("%s sample %d: presence mask has %d entries, want %d", src, refID, len(res.Present), v.devices)
		return
	}
	anyPresent := false
	for _, p := range res.Present {
		anyPresent = anyPresent || p
	}
	if !anyPresent {
		v.report.violate("%s sample %d: completed with an empty presence mask", src, refID)
		return
	}
	// Every session pins the topology config version it started under;
	// versions start at 1, so a zero means the stamp was dropped somewhere
	// between the gateway and this observation.
	if res.ConfigVersion == 0 {
		v.report.violate("%s sample %d: missing topology config version", src, refID)
	}
	// Likewise every session pins the model version it ran under; a zero
	// means a hop dropped the stamp.
	if res.ModelVersion == 0 {
		v.report.violate("%s sample %d: missing model version", src, refID)
		return
	}
	if len(res.Probs) != dataset.NumClasses {
		v.report.violate("%s sample %d: %d probabilities, want %d", src, refID, len(res.Probs), dataset.NumClasses)
		return
	}
	if got := core.Argmax(res.Probs); res.Class != got {
		v.report.violate("%s sample %d: class %d is not the argmax %d of its probabilities", src, refID, res.Class, got)
	}
	if res.Entropy < 0 || res.Entropy > 1.0001 {
		v.report.violate("%s sample %d: normalized entropy %v outside [0,1]", src, refID, res.Entropy)
	}
	v.checkShedExit(src, res, level, refID)
	er := v.ref.For(res.Present, res.ModelVersion)
	if er == nil {
		v.report.violate("%s sample %d: answered under unknown model version %d", src, refID, res.ModelVersion)
		return
	}
	var want []float32
	switch res.Exit {
	case wire.ExitLocal:
		want = er.LocalProbs[refID]
	case wire.ExitEdge:
		if er.EdgeProbs == nil {
			v.report.violate("%s sample %d: edge exit from a model without an edge tier", src, refID)
			return
		}
		want = er.EdgeProbs[refID]
	case wire.ExitCloud:
		want = er.CloudProbs[refID]
	default:
		v.report.violate("%s sample %d: unknown exit %v", src, refID, res.Exit)
		return
	}
	for i := range want {
		if res.Probs[i] != want[i] {
			v.report.violate("%s sample %d: %v-exit probs diverge from the staged reference under mask %v version %d: got %v, want %v",
				src, refID, res.Exit, res.Present, res.ModelVersion, res.Probs, want)
			return
		}
	}
}

// checkShedExit asserts the exit honors the granted shed level.
func (v *Verifier) checkShedExit(src string, res *cluster.Result, level cluster.ShedLevel, refID int) {
	switch level {
	case cluster.ShedLocalOnly:
		if res.Exit != wire.ExitLocal {
			v.report.violate("%s sample %d: %v exit under a local-only shed level", src, refID, res.Exit)
		}
	case cluster.ShedPreferEdge:
		if res.Exit == wire.ExitCloud {
			v.report.violate("%s sample %d: cloud exit under a prefer-edge shed level", src, refID)
		}
		if !v.model.Cfg.UseEdge && res.Exit != wire.ExitLocal {
			v.report.violate("%s sample %d: %v exit under prefer-edge on a two-tier model (degenerates to local-only)", src, refID, res.Exit)
		}
	}
}

// allowedErrors is the full set of sentinels a live engine may surface
// while chaos runs. ErrClosed is deliberately absent: the harness only
// closes the engine after traffic drains, so a closed-engine error
// mid-run means a session escaped the drain accounting. So is
// ErrUploadUnsupported — the harness always serves an in-process
// cluster.
var allowedErrors = []error{
	cluster.ErrCanceled,
	cluster.ErrDeadlineExceeded,
	cluster.ErrCloudUnavailable,
	cluster.ErrEdgeUnavailable,
	cluster.ErrNoHealthyReplica,
	cluster.ErrNoSummaries,
	cluster.ErrModelVersionUnknown,
}

// CheckError verifies a failed engine call surfaced a typed sentinel.
func (v *Verifier) CheckError(src string, err error) {
	for _, sentinel := range allowedErrors {
		if errors.Is(err, sentinel) {
			return
		}
	}
	v.report.violate("%s: untyped engine error: %v", src, err)
}

// allowedStatuses is every HTTP status the front door documents. 500
// means a panic or an unmapped engine error escaped — always a bug.
var allowedStatuses = map[int]bool{
	200: true, 201: true, 400: true, 401: true, 404: true,
	405: true, 409: true, 413: true, 422: true, 429: true,
	499: true, 501: true, 502: true, 503: true, 504: true,
}

// CheckStatus verifies an HTTP status. With expected codes given the
// status must be one of them; otherwise it must be in the documented
// set.
func (v *Verifier) CheckStatus(src string, code int, expected ...int) {
	if len(expected) > 0 {
		for _, want := range expected {
			if code == want {
				return
			}
		}
		v.report.violate("%s: HTTP %d, want one of %v", src, code, expected)
		return
	}
	if !allowedStatuses[code] {
		v.report.violate("%s: undocumented HTTP status %d", src, code)
	}
}

// parseExit maps a wire exit name from an HTTP response back to its
// ExitPoint; ok is false for unknown names.
func parseExit(s string) (wire.ExitPoint, bool) {
	switch s {
	case wire.ExitLocal.String():
		return wire.ExitLocal, true
	case wire.ExitEdge.String():
		return wire.ExitEdge, true
	case wire.ExitCloud.String():
		return wire.ExitCloud, true
	}
	return 0, false
}

// parseShedLevel maps a shed-level name from an HTTP response back to
// its ShedLevel.
func parseShedLevel(s string) (cluster.ShedLevel, bool) {
	for _, l := range []cluster.ShedLevel{cluster.ShedNone, cluster.ShedPreferEdge, cluster.ShedLocalOnly} {
		if l.String() == s {
			return l, true
		}
	}
	return 0, false
}
