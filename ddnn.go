// Package ddnn is a Go implementation of Distributed Deep Neural Networks
// (DDNNs) over the cloud, the edge and end devices, reproducing
// Teerapittayanon, McDanel & Kung, ICDCS 2017 (arXiv:1709.01921).
//
// A DDNN is a single jointly-trained deep network whose sections are
// mapped onto a distributed computing hierarchy. End devices run small
// binarized (BNN/eBNN) sections next to their sensors and send a compact
// class-summary vector to a local aggregator; samples the local exit is
// confident about (normalized entropy ≤ T) are classified immediately,
// while hard samples upload bit-packed binarized feature maps up the
// hierarchy for further NN-layer processing. Models built with an edge
// tier (Config.UseEdge, Fig. 2 configs d/e) escalate in three stages —
// local → edge → cloud: the edge node aggregates the device feature maps,
// runs the edge section and answers mid-confidence samples at its own
// exit (ExitEdge); only samples that miss both lower exits pay the WAN
// hop, as the edge forwards their bit-packed edge feature maps to the
// cloud. Aggregation across geographically distributed devices (max
// pooling, average pooling or concatenation) is learned during joint
// training, which gives the system automatic sensor fusion and fault
// tolerance.
//
// # Quick start
//
//	train, test := ddnn.GenerateDataset(ddnn.DefaultDatasetConfig())
//	model := ddnn.MustNewModel(ddnn.DefaultConfig())
//	model.Train(train, ddnn.DefaultTrainConfig())
//	res := model.Evaluate(test, nil, 32)
//	policy := ddnn.NewPolicy(0.8, 1) // local exit threshold T=0.8
//	fmt.Println(res.OverallAccuracy(policy), res.LocalExitFraction(policy))
//
// # Serving
//
// The Engine is the serving entry point: it runs the trained DDNN as an
// always-on cluster — device nodes, gateway, and replica pools for the
// edge and cloud tiers (EngineConfig.EdgeReplicas / CloudReplicas) — and
// classifies any number of samples concurrently. Every call is a
// context-aware session; sessions are multiplexed over the node links,
// load-balanced across healthy upstream replicas with mid-session
// failover, and bounded by the engine's concurrency limit. Start the
// config from DefaultGatewayConfig: a zero GatewayConfig has T = 0 and
// escalates every sample.
//
//	eng, _ := ddnn.NewEngine(model, test, ddnn.EngineConfig{
//		Gateway:        ddnn.DefaultGatewayConfig(), // T = 0.8
//		MaxConcurrency: 32,
//	})
//	defer eng.Close()
//	res, err := eng.ClassifyTenantShed(ctx, 7, "", ddnn.ShedNone)           // one session
//	batch, err := eng.ClassifyBatchTenantShed(ctx, ids, "", ddnn.ShedNone) // concurrent sessions
//
// Use Connect instead of NewEngine to front nodes that run as separate
// processes over TCP (cmd/ddnn-node -tier device|edge|cloud):
// the gateway then dials the devices plus its upstream tier — the edge
// node for UseEdge models, the cloud otherwise.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/core — the DDNN model, joint training, staged inference
//   - internal/bnn — binarized layers and the fused ConvP block
//   - internal/agg — MP/AP/CC aggregation with gradient routing
//   - internal/branchy — early-exit policies and threshold sweeps
//   - internal/dataset — the synthetic multi-view multi-camera dataset
//   - internal/cluster — the concurrent distributed runtime and Engine
//   - internal/experiments — regeneration of every paper table and figure
package ddnn

import (
	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/modelio"
)

// Core model types.
type (
	// Config describes a DDNN architecture (devices, filters, aggregation
	// schemes, optional edge tier).
	Config = core.Config
	// Model is a DDNN: per-device sections, aggregators, optional edge
	// tier and the cloud section, trained jointly.
	Model = core.Model
	// TrainConfig holds the training hyper-parameters (paper defaults:
	// Adam α=0.001, 100 epochs).
	TrainConfig = core.TrainConfig
	// EvalResult stores per-sample exit probabilities, from which all
	// §III-F accuracy measures derive.
	EvalResult = core.EvalResult
	// IndividualModel is the per-device baseline trained separately from
	// any DDNN.
	IndividualModel = core.IndividualModel
	// Logits bundles the raw class scores at each exit point.
	Logits = core.Logits
)

// Aggregation schemes.
type (
	// AggScheme selects max pooling (MP), average pooling (AP) or
	// concatenation (CC) at an exit point.
	AggScheme = agg.Scheme
)

// Aggregation scheme constants (§III-B).
const (
	MP = agg.MP
	AP = agg.AP
	CC = agg.CC
)

// Early-exit policy types.
type (
	// Policy holds one normalized-entropy threshold per exit point.
	Policy = branchy.Policy
	// SweepPoint is one row of a threshold sweep (Table II).
	SweepPoint = branchy.SweepPoint
)

// Dataset types.
type (
	// Dataset is an in-memory multi-view dataset.
	Dataset = dataset.Dataset
	// DatasetConfig controls the synthetic MVMC generator.
	DatasetConfig = dataset.Config
)

// Cluster runtime types.
type (
	// GatewayConfig controls the local aggregator node.
	GatewayConfig = cluster.GatewayConfig
)

// DefaultConfig returns the architecture evaluated in the paper's §IV: six
// end devices with 4-filter ConvP blocks, MP local aggregation and CC
// cloud aggregation.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewModel builds a DDNN from a configuration.
func NewModel(cfg Config) (*Model, error) { return core.NewModel(cfg) }

// MustNewModel is NewModel for known-good configs; it panics on error.
func MustNewModel(cfg Config) *Model { return core.MustNewModel(cfg) }

// DefaultTrainConfig returns the paper's training hyper-parameters.
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// KernelPath reports the active compute-kernel dispatch path ("naive",
// "go" or "simd"): the best supported path by default, or the one
// forced via the DDNN_KERNELS environment variable. The path picks the
// kernels every forward runs, not its algorithm, so all paths produce
// identical classifications; serving binaries log this at startup.
func KernelPath() string { return core.KernelPath() }

// NewIndividualModel builds the standalone baseline for one device.
func NewIndividualModel(cfg Config, device int) (*IndividualModel, error) {
	return core.NewIndividualModel(cfg, device)
}

// NewPolicy builds an exit policy from per-exit entropy thresholds,
// ordered local (edge) cloud. The final exit always classifies.
func NewPolicy(thresholds ...float64) Policy { return branchy.NewPolicy(thresholds...) }

// DefaultDatasetConfig returns the synthetic multi-view multi-camera
// dataset configuration used in the evaluation (680 train / 171 test, six
// cameras, three classes).
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultConfig() }

// GenerateDataset builds the train and test splits; it panics on an
// invalid configuration (use dataset.Generate for error handling).
func GenerateDataset(cfg DatasetConfig) (train, test *Dataset) {
	return dataset.MustGenerate(cfg)
}

// SaveModel writes a trained model to a file.
func SaveModel(path string, m *Model) error { return modelio.SaveFile(path, m) }

// SaveModelVersion atomically writes a trained model to a file as a
// versioned artifact (temp file + fsync + rename): the model version is
// stamped into the header, every tensor is checksummed, and a crash
// mid-write can never leave a torn file behind. version must be
// nonzero — zero is the wire's "active version" sentinel.
func SaveModelVersion(path string, m *Model, version uint64) error {
	return modelio.SaveFileAtomic(path, m, version)
}

// LoadModel reads a trained model from a file.
func LoadModel(path string) (*Model, error) { return modelio.LoadFile(path) }

// Typed model-artifact errors, for errors.Is against LoadModel and
// Engine.RegisterModelBytes results.
var (
	// ErrCorruptModel reports an artifact that failed structural or
	// checksum validation.
	ErrCorruptModel = modelio.ErrCorruptModel
	// ErrModelFormatUnsupported reports an artifact written by a newer
	// format revision than this build understands.
	ErrModelFormatUnsupported = modelio.ErrVersionUnsupported
)

// DefaultGatewayConfig returns the cluster gateway defaults (T=0.8).
func DefaultGatewayConfig() GatewayConfig { return cluster.DefaultGatewayConfig() }
