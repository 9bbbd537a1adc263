package cliutil

import (
	"context"
	"strings"
	"testing"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
)

// TestClusterEngineRejectsMismatchedAddresses: attaching names the
// upstream tier the model actually has and one address per device slot
// (fewer only with -register), and every mistake fails before a dial.
func TestClusterEngineRejectsMismatchedAddresses(t *testing.T) {
	twoTier := core.MustNewModel(core.DefaultConfig())
	edgeCfg := core.DefaultConfig()
	edgeCfg.UseEdge = true
	threeTier := core.MustNewModel(edgeCfg)
	six := "a:1,a:2,a:3,a:4,a:5,a:6"
	for _, tc := range []struct {
		name  string
		model *core.Model
		c     Cluster
		want  string
	}{
		{"edge flag on two-tier", twoTier, Cluster{Devices: six, Clouds: AddrList{"c:1"}, Edges: AddrList{"e:1"}}, "model has no edge tier"},
		{"no cloud", twoTier, Cluster{Devices: six}, "pass -cloud"},
		{"no edge", threeTier, Cluster{Devices: six, Clouds: AddrList{"c:1"}}, "pass -edge-addr"},
		{"cloud beside edge", threeTier, Cluster{Devices: six, Clouds: AddrList{"c:1"}, Edges: AddrList{"e:1"}}, "each edge node dials its own -cloud"},
		{"too few devices", twoTier, Cluster{Devices: "a:1,a:2", Clouds: AddrList{"c:1"}}, "pass -register"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.c.Remote() {
				t.Fatal("Remote() = false for a cluster naming node addresses")
			}
			eng, err := tc.c.Engine(context.Background(), tc.model, nil, cluster.EngineConfig{})
			if eng != nil {
				eng.Close()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Engine = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
