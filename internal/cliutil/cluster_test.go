package cliutil

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/modelio"
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

// TestClusterModelKeepsVersionStamp: a -model file stamped with version 7
// loads as version 7, the engine built from it answers pinned to 7, and
// a different artifact genuinely stamped 1 then registers cleanly.
func TestClusterModelKeepsVersionStamp(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CloudFilters = 8
	path := filepath.Join(t.TempDir(), "model.ddnn")
	if err := modelio.SaveFileAtomic(path, core.MustNewModel(cfg), 7); err != nil {
		t.Fatal(err)
	}
	c := Cluster{ModelPath: path, Replicas: 1}
	m, version, err := c.Model(nil, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if version != 7 {
		t.Fatalf("Model() version = %d, want the file's stamp 7", version)
	}
	dcfg := dataset.DefaultConfig()
	dcfg.Train, dcfg.Test = 8, 8
	_, test := dataset.MustGenerate(dcfg)
	eng, err := c.Engine(context.Background(), m, test, cluster.EngineConfig{Gateway: cluster.DefaultGatewayConfig(), ModelVersion: version})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.ClassifyTenantShed(context.Background(), 0, "", cluster.ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != 7 {
		t.Fatalf("answer pinned to version %d, want 7", res.ModelVersion)
	}
	cfg.Seed++
	var buf bytes.Buffer
	if err := modelio.SaveVersion(&buf, core.MustNewModel(cfg), 1); err != nil {
		t.Fatal(err)
	}
	if v, err := eng.RegisterModelBytes(buf.Bytes()); err != nil || v != 1 {
		t.Fatalf("registering an artifact stamped 1: version %d, %v; want 1, nil", v, err)
	}
}
