package chaos

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// newTestVerifier builds a verifier over the two-tier fixture.
func newTestVerifier(t *testing.T) (*Verifier, *Report) {
	t.Helper()
	model, test := twoTier(t)
	rep := newReport(0, time.Second)
	return newVerifier(model, test, rep), rep
}

// goodResult builds a classification that matches the staged reference
// for sample id at the local exit under the full mask.
func goodResult(v *Verifier, id int) *cluster.Result {
	er := v.ref.For(fullPresence(v.devices), 1)
	probs := append([]float32(nil), er.LocalProbs[id]...)
	return &cluster.Result{
		SampleID:      uint64(id),
		Class:         core.Argmax(probs),
		Exit:          wire.ExitLocal,
		Probs:         probs,
		Entropy:       0.5,
		Present:       fullPresence(v.devices),
		ConfigVersion: 1,
		ModelVersion:  1,
	}
}

func fullPresence(n int) []bool {
	p := make([]bool, n)
	for i := range p {
		p[i] = true
	}
	return p
}

// TestVerifierAcceptsReferenceResult: a bit-identical result produces
// no violations — the harness's green path is actually reachable.
func TestVerifierAcceptsReferenceResult(t *testing.T) {
	v, rep := newTestVerifier(t)
	v.CheckResult("test", goodResult(v, 0), cluster.ShedNone, 0)
	if got := rep.Violations(); len(got) != 0 {
		t.Fatalf("reference result flagged: %v", got)
	}
	if rep.Checked() != 1 {
		t.Fatalf("checked = %d, want 1", rep.Checked())
	}
}

// TestVerifierCatchesTamperedProbs: flipping one mantissa bit in one
// probability must trip the bit-identity invariant. If this test
// fails, every "verified" chaos run was vacuous.
func TestVerifierCatchesTamperedProbs(t *testing.T) {
	v, rep := newTestVerifier(t)
	res := goodResult(v, 1)
	res.Probs[0] += 1e-7
	v.CheckResult("test", res, cluster.ShedNone, 1)
	if !hasViolation(rep, "diverge") {
		t.Fatalf("tampered probs not flagged; violations: %v", rep.Violations())
	}
}

// TestVerifierCatchesMissingConfigVersion: a completed classification
// without a topology config version stamp means the session lost its
// pinned version somewhere along the serving path.
func TestVerifierCatchesMissingConfigVersion(t *testing.T) {
	v, rep := newTestVerifier(t)
	res := goodResult(v, 1)
	res.ConfigVersion = 0
	v.CheckResult("test", res, cluster.ShedNone, 1)
	if !hasViolation(rep, "missing topology config version") {
		t.Fatalf("zero config version not flagged; violations: %v", rep.Violations())
	}
}

// TestVerifierCatchesMissingModelVersion: a completed classification
// without a model version stamp means a hop dropped the session's
// pinned version.
func TestVerifierCatchesMissingModelVersion(t *testing.T) {
	v, rep := newTestVerifier(t)
	res := goodResult(v, 1)
	res.ModelVersion = 0
	v.CheckResult("test", res, cluster.ShedNone, 1)
	if !hasViolation(rep, "missing model version") {
		t.Fatalf("zero model version not flagged; violations: %v", rep.Violations())
	}
}

// TestVerifierCatchesVersionConfusion: an answer stamped with a version
// the verifier never saw is flagged, and genuine answers from a second
// registered version verify against that version's weights — not the
// base model's.
func TestVerifierCatchesVersionConfusion(t *testing.T) {
	v, rep := newTestVerifier(t)
	res := goodResult(v, 0)
	res.ModelVersion = 42
	v.CheckResult("test", res, cluster.ShedNone, 0)
	if !hasViolation(rep, "unknown model version") {
		t.Fatalf("unknown model version not flagged; violations: %v", rep.Violations())
	}

	vcfg := v.model.Cfg
	vcfg.Seed = vcfg.Seed + 7777
	variant := core.MustNewModel(vcfg)
	v.AddModel(2, variant)
	er2 := v.ref.For(fullPresence(v.devices), 2)
	good := &cluster.Result{
		SampleID:      0,
		Class:         core.Argmax(er2.LocalProbs[0]),
		Exit:          wire.ExitLocal,
		Probs:         append([]float32(nil), er2.LocalProbs[0]...),
		Entropy:       0.5,
		Present:       fullPresence(v.devices),
		ConfigVersion: 1,
		ModelVersion:  2,
	}
	before := len(rep.Violations())
	v.CheckResult("test", good, cluster.ShedNone, 0)
	if got := rep.Violations(); len(got) != before {
		t.Fatalf("version-2 result against version-2 reference flagged: %v", got[before:])
	}
	// The same numbers claimed under version 1 must diverge.
	bad := *good
	bad.ModelVersion = 1
	bad.Probs = append([]float32(nil), good.Probs...)
	v.CheckResult("test", &bad, cluster.ShedNone, 0)
	if !hasViolation(rep, "diverge") {
		t.Fatalf("version-2 probs under a version-1 claim not flagged; violations: %v", rep.Violations())
	}
}

// TestVerifierCatchesWrongArgmax: a class that is not the argmax of
// its own probabilities is flagged even when the probs are genuine.
func TestVerifierCatchesWrongArgmax(t *testing.T) {
	v, rep := newTestVerifier(t)
	res := goodResult(v, 2)
	res.Class = (res.Class + 1) % len(res.Probs)
	v.CheckResult("test", res, cluster.ShedNone, 2)
	if !hasViolation(rep, "argmax") {
		t.Fatalf("wrong argmax not flagged; violations: %v", rep.Violations())
	}
}

// TestVerifierCatchesShedViolation: a cloud exit under a local-only
// shed grant is a contract breach regardless of the numbers.
func TestVerifierCatchesShedViolation(t *testing.T) {
	v, rep := newTestVerifier(t)
	res := goodResult(v, 3)
	v.CheckResult("test", res, cluster.ShedLocalOnly, 3)
	if len(rep.Violations()) != 0 {
		t.Fatalf("local exit under local-only flagged: %v", rep.Violations())
	}
	er := v.ref.For(fullPresence(v.devices), 1)
	res = goodResult(v, 3)
	res.Exit = wire.ExitCloud
	res.Probs = append([]float32(nil), er.CloudProbs[3]...)
	res.Class = core.Argmax(res.Probs)
	v.CheckResult("test", res, cluster.ShedLocalOnly, 3)
	if !hasViolation(rep, "local-only") {
		t.Fatalf("cloud exit under local-only not flagged; violations: %v", rep.Violations())
	}
}

// TestVerifierChecksMaskedReference: results under a partial mask are
// verified against the masked evaluation, not the full one.
func TestVerifierCatchesMaskConfusion(t *testing.T) {
	v, rep := newTestVerifier(t)
	mask := fullPresence(v.devices)
	mask[1] = false
	masked := v.ref.For(mask, 1)
	full := v.ref.For(fullPresence(v.devices), 1)
	// Find a sample whose masked and unmasked local aggregates genuinely
	// differ, so the two claims below are distinguishable.
	id := -1
	for i := range masked.LocalProbs {
		if !probsEqual(full.LocalProbs[i], masked.LocalProbs[i]) {
			id = i
			break
		}
	}
	if id < 0 {
		t.Fatal("masked and unmasked probs coincide for every sample; fixture too degenerate to test masking")
	}
	res := &cluster.Result{
		SampleID:      uint64(id),
		Class:         core.Argmax(masked.LocalProbs[id]),
		Exit:          wire.ExitLocal,
		Probs:         append([]float32(nil), masked.LocalProbs[id]...),
		Entropy:       0.5,
		Present:       mask,
		ConfigVersion: 1,
		ModelVersion:  1,
	}
	v.CheckResult("test", res, cluster.ShedNone, id)
	if len(rep.Violations()) != 0 {
		t.Fatalf("correct masked result flagged: %v", rep.Violations())
	}
	// The same numbers claimed under the full mask must fail.
	res2 := &cluster.Result{
		SampleID:      uint64(id),
		Class:         core.Argmax(masked.LocalProbs[id]),
		Exit:          wire.ExitLocal,
		Probs:         append([]float32(nil), masked.LocalProbs[id]...),
		Entropy:       0.5,
		Present:       fullPresence(v.devices),
		ConfigVersion: 1,
		ModelVersion:  1,
	}
	v.CheckResult("test", res2, cluster.ShedNone, id)
	if !hasViolation(rep, "diverge") {
		t.Fatalf("masked probs under a full-mask claim not flagged; violations: %v", rep.Violations())
	}
}

func probsEqual(a, b []float32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVerifierCatchesUntypedError: ad-hoc error strings from the
// engine are contract breaches; typed sentinels (wrapped arbitrarily
// deep) are not.
func TestVerifierCatchesUntypedError(t *testing.T) {
	v, rep := newTestVerifier(t)
	v.CheckError("test", cluster.ErrCloudUnavailable)
	v.CheckError("test", errors.Join(errors.New("wrap"), cluster.ErrDeadlineExceeded))
	if len(rep.Violations()) != 0 {
		t.Fatalf("typed errors flagged: %v", rep.Violations())
	}
	v.CheckError("test", errors.New("socket exploded"))
	if !hasViolation(rep, "untyped") {
		t.Fatalf("untyped error not flagged; violations: %v", rep.Violations())
	}
	v.CheckError("test", cluster.ErrClosed)
	if !hasViolation(rep, "engine closed") {
		t.Fatalf("mid-run ErrClosed not flagged; violations: %v", rep.Violations())
	}
}

// TestVerifierCatchesHTTP500: a 500 anywhere is an escaped invariant
// violation; expected-status mismatches are flagged too.
func TestVerifierCatchesHTTP500(t *testing.T) {
	v, rep := newTestVerifier(t)
	v.CheckStatus("test", 503)
	v.CheckStatus("test", 400, 400)
	if len(rep.Violations()) != 0 {
		t.Fatalf("documented statuses flagged: %v", rep.Violations())
	}
	v.CheckStatus("test", 500)
	if !hasViolation(rep, "undocumented HTTP status 500") {
		t.Fatalf("500 not flagged; violations: %v", rep.Violations())
	}
	v.CheckStatus("test", 200, 401)
	if !hasViolation(rep, "want one of") {
		t.Fatalf("expected-status mismatch not flagged; violations: %v", rep.Violations())
	}
}

// TestWatchdogDetectsWedge: the drain watchdog must report a WaitGroup
// that never finishes — the harness's deadlock detector.
func TestWatchdogDetectsWedge(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	if waitTimeout(&wg, 50*time.Millisecond) {
		t.Fatal("watchdog reported a wedged group as done")
	}
	wg.Done()
	if !waitTimeout(&wg, time.Second) {
		t.Fatal("watchdog never saw the group finish")
	}
}

// TestMutateFrameAlwaysChanges: mutations never return the input
// unchanged-by-construction cases (byte flips can no-op only on empty
// frames, which the corpus never contains).
func TestMutateFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	valid := validFrame()
	for i := 0; i < 100; i++ {
		m := mutateFrame(rng, valid)
		if len(m) == 0 {
			t.Fatal("mutation produced an empty frame")
		}
	}
	if got := string(validFrame()); got != string(valid) {
		t.Fatal("mutateFrame corrupted its input")
	}
}

func hasViolation(rep *Report, substr string) bool {
	for _, v := range rep.Violations() {
		if strings.Contains(v, substr) {
			return true
		}
	}
	return false
}
