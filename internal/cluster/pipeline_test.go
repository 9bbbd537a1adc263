package cluster

import (
	"testing"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/nn"
)

// TestPipelineShedExitsMaxEntropySamples pins the shed contract on the
// sample easiest to break: a uniform distribution, whose normalized
// entropy rounds a few ulps above 1 (1 + 2.7e-9 for three classes). The
// stage a shed level stops at must answer it on both hierarchies, or the
// sample escalates past the level it was granted.
func TestPipelineShedExitsMaxEntropySamples(t *testing.T) {
	third := float32(1) / 3
	uniform := nn.NormalizedEntropy([]float32{third, third, third})
	if uniform <= 1 {
		t.Fatalf("uniform three-class entropy %v no longer rounds above 1; the case is not exercised", uniform)
	}
	for _, edge := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.UseEdge = edge
		p := BuildPipeline(cfg, 0.3, 0.3)
		for level, stop := range map[ShedLevel]int{ShedLocalOnly: 0, ShedPreferEdge: len(p) - 2} {
			if th := p.Shed(level)[stop].Threshold; uniform > th {
				t.Errorf("edge=%v %v: stage %d threshold %v lets a uniform sample (entropy %v) escalate", edge, level, stop, th, uniform)
			}
		}
	}
}
