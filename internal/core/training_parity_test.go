package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// trainingGolden pins the training digest of each hierarchy on amd64.
// Training and the layered oracle are deterministic functions of the
// configuration, and every kernel path accumulates in the same order, so
// a change that moves training numerics — a kernel, a layer, the
// optimizer — shows up here. Such a change updates these values in its
// own diff, and says why.
var trainingGolden = map[string]string{
	"two-tier":   "ca7480138cb8aec8e4f550a651a44bc7cbb75f2990a415940ee5251521efdc4a",
	"three-tier": "e3bbbf21b0e106bd3a25ea7ed86ff36227d2eaf3762071bf1fc154bf9f6241ef",
}

// TestTrainingKernelPathParity trains a small MP-CC DDNN (with and
// without an edge tier) once per kernel path and digests the trained
// state and Evaluate's exit probabilities: every path must produce the
// same bits, and on amd64 those bits must equal the committed golden.
// Other architectures skip only the golden check, because their Go
// compilers may fuse multiply-adds.
func TestTrainingKernelPathParity(t *testing.T) {
	dcfg := dataset.DefaultConfig()
	dcfg.Train, dcfg.Test = 48, 24
	train, test := dataset.MustGenerate(dcfg)
	for _, tc := range []struct {
		name    string
		useEdge bool
	}{{"two-tier", false}, {"three-tier", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
				cfg := DefaultConfig()
				cfg.UseEdge = tc.useEdge
				m := MustNewModel(cfg)
				tcfg := DefaultTrainConfig()
				tcfg.Epochs, tcfg.BatchSize = 1, 16
				if _, err := m.Train(train, tcfg); err != nil {
					t.Fatal(err)
				}
				got := trainingDigest(m, m.Evaluate(test, nil, 16))
				switch {
				case first == "":
					first = got
				case got != first:
					t.Errorf("path %v: digest %s, first path's %s", p, got, first)
				}
			})
			if want := trainingGolden[tc.name]; runtime.GOARCH == "amd64" && first != want {
				t.Errorf("digest %s, golden %s: training numerics moved", first, want)
			}
		})
	}
}

// trainingDigest is a SHA-256 over the model's StateDict (names and
// float bits, in its sorted order) followed by the local, edge and cloud
// exit probabilities of res.
func trainingDigest(m *Model, res *EvalResult) string {
	h := sha256.New()
	for _, nt := range m.StateDict() {
		h.Write([]byte(nt.Name))
		hashFloats(h, nt.T.Data())
	}
	for _, probs := range [][][]float32{res.LocalProbs, res.EdgeProbs, res.CloudProbs} {
		for _, row := range probs {
			hashFloats(h, row)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashFloats(h hash.Hash, xs []float32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
}
