package cluster

import (
	"fmt"
	"math"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Stage is one exit point of the staged-inference pipeline (§III-D): a
// tier of the physical hierarchy with an early-exit head and the
// normalized-entropy threshold gating it.
type Stage struct {
	// Exit identifies the tier that classifies at this stage.
	Exit wire.ExitPoint
	// Threshold is the stage's exit criterion: a sample whose
	// normalized entropy is ≤ Threshold exits here. The final stage
	// always classifies regardless of its threshold.
	Threshold float64
}

// Pipeline is the ordered exit-stage list of a hierarchy, lowest tier
// first. The runtime routes escalations along it instead of hard-coding
// device/cloud pairs, so deeper hierarchies are a configuration change:
// the gateway evaluates the first stage locally and forwards the
// remaining thresholds up the chain, each tier peeling off its own.
type Pipeline []Stage

// BuildPipeline derives the exit pipeline from a model configuration
// and the per-tier thresholds: local(+edge)+cloud, where the cloud is
// the final stage and always classifies.
func BuildPipeline(cfg core.Config, localT, edgeT float64) Pipeline {
	p := Pipeline{{Exit: wire.ExitLocal, Threshold: localT}}
	if cfg.UseEdge {
		p = append(p, Stage{Exit: wire.ExitEdge, Threshold: edgeT})
	}
	return append(p, Stage{Exit: wire.ExitCloud, Threshold: 1})
}

// ShedLevel selects how much of the exit pipeline one session may use.
// It is the staged hierarchy acting as a load-shedding mechanism: under
// overload an admission controller raises the level, which answers
// requests at cheaper (lower) exits instead of queueing or refusing them
// — quality degrades before availability does.
type ShedLevel int

// Shed levels, cheapest-pipeline last.
const (
	// ShedNone runs the session over the full configured pipeline.
	ShedNone ShedLevel = iota
	// ShedPreferEdge forces every escalated sample to exit at the tier
	// directly below the final one — the edge of a three-tier hierarchy
	// — keeping the top tier idle. In a two-tier hierarchy (no edge) it
	// degenerates to ShedLocalOnly.
	ShedPreferEdge
	// ShedLocalOnly answers every sample at the local exit; nothing
	// escalates past the gateway.
	ShedLocalOnly
)

// String names the level for headers, logs and metric labels.
func (s ShedLevel) String() string {
	switch s {
	case ShedNone:
		return "normal"
	case ShedPreferEdge:
		return "prefer-edge"
	case ShedLocalOnly:
		return "device-only"
	default:
		return fmt.Sprintf("shed(%d)", int(s))
	}
}

// Shed returns a tightened copy of the pipeline for one session: the
// stage `level` tiers below the final one has its threshold raised to
// +Inf, so every sample that reaches it passes the normalized-entropy
// test and the tiers above it never see the session.
// Shed(ShedNone) returns the pipeline unchanged; levels past the bottom
// of the pipeline clamp to the local exit. The receiver is never mutated.
func (p Pipeline) Shed(level ShedLevel) Pipeline {
	if level <= ShedNone || len(p) == 0 {
		return p
	}
	stop := len(p) - 1 - int(level)
	if stop < 0 {
		stop = 0
	}
	out := make(Pipeline, len(p))
	copy(out, p)
	out[stop].Threshold = math.Inf(1)
	return out
}

// Validate reports malformed pipelines.
func (p Pipeline) Validate() error {
	if len(p) < 2 {
		return fmt.Errorf("cluster: pipeline needs at least a local and a final stage, got %d", len(p))
	}
	if p[0].Exit != wire.ExitLocal {
		return fmt.Errorf("cluster: pipeline must start at the local exit, got %v", p[0].Exit)
	}
	return nil
}

// RelayThresholds returns the thresholds the gateway forwards with an
// escalation: every stage above the local exit except the final stage,
// which always classifies. Each intermediate tier consumes the first
// entry and relays the rest.
func (p Pipeline) RelayThresholds() []float64 {
	if len(p) <= 2 {
		return nil
	}
	ts := make([]float64, 0, len(p)-2)
	for _, s := range p[1 : len(p)-1] {
		ts = append(ts, s.Threshold)
	}
	return ts
}
