package main

import (
	"fmt"
	"math"
	"sync"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// verifier is the correctness gate: every completed classification must
// equal — class, exit and probabilities bit for bit — what the staged
// reference (core.Model.Evaluate) computes for that sample under the
// presence mask and model version the answer reports.
type verifier struct {
	test     *dataset.Dataset
	pipeline cluster.Pipeline

	mu     sync.Mutex
	models map[uint64]*core.Model
	refs   map[refKey]*core.EvalResult
}

// refKey identifies one staged reference: a device-presence bitmask
// (bit d set = device d present) and a model version.
type refKey struct {
	mask    uint32
	version uint64
}

func newVerifier(model *core.Model, test *dataset.Dataset) *verifier {
	return &verifier{
		test:   test,
		models: map[uint64]*core.Model{1: model},
		refs:   make(map[refKey]*core.EvalResult),
	}
}

// reference returns the staged evaluation of the whole test split under
// the presence mask (nil: every device) and model version, computing it
// on first use. It returns nil for a version the benchmark never
// registered.
func (v *verifier) reference(present []bool, version uint64) *core.EvalResult {
	key := refKey{version: version}
	devices := v.test.Devices()
	for d := 0; d < devices; d++ {
		if present == nil || present[d] {
			key.mask |= 1 << uint(d)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if er, ok := v.refs[key]; ok {
		return er
	}
	m := v.models[version]
	if m == nil {
		return nil
	}
	mask := make([]bool, devices)
	for d := range mask {
		mask[d] = key.mask&(1<<uint(d)) != 0
	}
	er := m.Evaluate(v.test, mask, evalBatch)
	v.refs[key] = er
	return er
}

// answer is a completed classification in the form both the engine and
// the HTTP front door can be reduced to.
type answer struct {
	refID        int // dataset row the views came from
	class        int
	exit         wire.ExitPoint
	probs        []float32
	present      []bool
	modelVersion uint64
	level        cluster.ShedLevel
}

// check compares one answer with the staged reference and returns the
// first difference.
func (v *verifier) check(a answer) error {
	if a.refID < 0 || a.refID >= v.test.Len() {
		return fmt.Errorf("sample %d: outside the test split", a.refID)
	}
	if len(a.present) != v.test.Devices() {
		return fmt.Errorf("sample %d: presence mask has %d entries, want %d", a.refID, len(a.present), v.test.Devices())
	}
	er := v.reference(a.present, a.modelVersion)
	if er == nil {
		return fmt.Errorf("sample %d: answered under unknown model version %d", a.refID, a.modelVersion)
	}
	wantExit, want := stagedExit(er, v.pipeline.Shed(a.level), a.refID)
	if a.exit != wantExit {
		return fmt.Errorf("sample %d: exit %v, staged reference exits at %v", a.refID, a.exit, wantExit)
	}
	if len(a.probs) != len(want) {
		return fmt.Errorf("sample %d: %d probabilities, want %d", a.refID, len(a.probs), len(want))
	}
	for i := range want {
		if math.Float32bits(a.probs[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("sample %d: %v-exit probs %v differ from the staged reference %v", a.refID, a.exit, a.probs, want)
		}
	}
	if wantClass := argmax(want); a.class != wantClass {
		return fmt.Errorf("sample %d: class %d, staged reference says %d", a.refID, a.class, wantClass)
	}
	return nil
}

// stagedExit walks the exit pipeline over the reference probabilities of
// one sample (§III-D): the first stage whose normalized entropy is
// within its threshold classifies, the final stage always does.
func stagedExit(er *core.EvalResult, p cluster.Pipeline, id int) (wire.ExitPoint, []float32) {
	for i, stage := range p {
		var probs []float32
		switch stage.Exit {
		case wire.ExitLocal:
			probs = er.LocalProbs[id]
		case wire.ExitEdge:
			probs = er.EdgeProbs[id]
		default:
			probs = er.CloudProbs[id]
		}
		if i == len(p)-1 || nn.NormalizedEntropy(probs) <= stage.Threshold {
			return stage.Exit, probs
		}
	}
	panic("benchmark: empty exit pipeline")
}

func argmax(row []float32) int {
	best := 0
	for i := 1; i < len(row); i++ {
		if row[i] > row[best] {
			best = i
		}
	}
	return best
}
