package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/modelio"
	"github.com/ddnn/ddnn-go/internal/transport"
)

// Cluster holds the flags ddnn-sim and ddnn-serve share to pick the
// model and where its hierarchy runs. By default the model is loaded
// from -model, or trained now for -epochs, and a complete in-process
// cluster serves it over in-memory links with -replicas replicas per
// upper tier. With -devices, -cloud, -edge-addr or -register the engine
// instead attaches over TCP to running ddnn-node processes, which must
// have loaded the same -model and -data-seed.
type Cluster struct {
	// ModelPath is -model, the trained model file; empty means train now.
	ModelPath string
	// UseEdge is -edge: train with an edge tier.
	UseEdge bool
	// Epochs is -epochs, the training epochs when ModelPath is empty.
	Epochs int
	// DataSeed is -data-seed, the synthetic dataset's seed.
	DataSeed int64
	// Replicas is -replicas, the in-process replicas per upper tier.
	Replicas int
	// Devices is -devices, the device nodes' comma-separated addresses.
	Devices string
	// Clouds is -cloud, the cloud replicas of a two-tier model.
	Clouds AddrList
	// Edges is -edge-addr, the edge replicas of an edge-tier model.
	Edges AddrList
	// Register is -register, the registration plane's listen address.
	Register string
}

// Flags registers the cluster flags on fs.
func (c *Cluster) Flags(fs *flag.FlagSet) {
	fs.StringVar(&c.ModelPath, "model", "", "trained model file (empty: train now; required when attaching to running nodes)")
	fs.BoolVar(&c.UseEdge, "edge", false, "train with an edge tier when -model is empty (three-stage local→edge→cloud escalation)")
	fs.IntVar(&c.Epochs, "epochs", 25, "training epochs when -model is empty")
	fs.Int64Var(&c.DataSeed, "data-seed", 1, "dataset seed (must match every device node's)")
	fs.IntVar(&c.Replicas, "replicas", 1, "replicas of each upper tier (in-process cluster only)")
	fs.StringVar(&c.Devices, "devices", "", "attach to running device nodes at these comma-separated addresses, in device order; with -register, fewer entries than the model has slots (or empty entries) leave those slots absent until a device registers")
	fs.Var(&c.Clouds, "cloud", "attach to the cloud node at this address (repeatable, one per replica; two-tier models)")
	fs.Var(&c.Edges, "edge-addr", "attach to the edge node at this address (repeatable, one per replica; edge-tier models)")
	fs.StringVar(&c.Register, "register", "", "serve the device registration plane on this TCP address so devices join and leave at runtime (ddnn-node -tier device -register)")
}

// Remote reports whether the flags attach to running nodes over TCP
// instead of starting an in-process cluster.
func (c *Cluster) Remote() bool {
	return c.Devices != "" || len(c.Clouds) > 0 || len(c.Edges) > 0 || c.Register != ""
}

// Dataset generates the synthetic train and test splits under -data-seed.
func (c *Cluster) Dataset() (train, test *dataset.Dataset) {
	cfg := dataset.DefaultConfig()
	cfg.Seed = c.DataSeed
	return dataset.MustGenerate(cfg)
}

// Model loads -model, or trains a fresh model on train when it is empty,
// and logs which. It also returns the model's version: the file's stamp
// (ddnn-train -model-version), or 1 for a model trained now. Pass it as
// EngineConfig.ModelVersion, so sessions pin the version ddnn-node
// processes that loaded the same file hold. It checks the flag
// combination first, so a mistake fails before minutes of training.
func (c *Cluster) Model(train *dataset.Dataset, logger *slog.Logger) (*core.Model, uint64, error) {
	switch {
	case c.Replicas < 1:
		return nil, 0, fmt.Errorf("-replicas must be at least 1, got %d", c.Replicas)
	case c.Remote() && c.ModelPath == "":
		return nil, 0, errors.New("attaching to running nodes needs -model, the file they loaded")
	case c.Remote() && c.Replicas > 1:
		return nil, 0, errors.New("-replicas starts in-process replicas; name running ones with -cloud or -edge-addr instead")
	}
	if c.ModelPath != "" {
		m, v, err := modelio.LoadFileVersioned(c.ModelPath)
		if err == nil {
			logger.Info("model loaded", "path", c.ModelPath, "edge", m.Cfg.UseEdge, "model_version", v)
		}
		return m, v, err
	}
	cfg := core.DefaultConfig()
	cfg.UseEdge = c.UseEdge
	m := core.MustNewModel(cfg)
	tc := core.DefaultTrainConfig()
	tc.Epochs = c.Epochs
	logger.Info("training model", "epochs", c.Epochs, "edge", c.UseEdge)
	if _, err := m.Train(train, tc); err != nil {
		return nil, 0, err
	}
	return m, 1, nil
}

// Engine starts the serving engine for m: attached to the nodes the
// flags name, or a complete in-process cluster whose devices read test.
// With -register it also serves the device registration plane. The
// caller closes the engine.
func (c *Cluster) Engine(ctx context.Context, m *core.Model, test *dataset.Dataset, cfg cluster.EngineConfig) (*cluster.Engine, error) {
	if !c.Remote() {
		cfg.EdgeReplicas, cfg.CloudReplicas = c.Replicas, c.Replicas
		return cluster.NewEngine(m, test, cfg, transport.NewMem())
	}
	upstream := []string(c.Clouds)
	switch {
	case m.Cfg.UseEdge && len(c.Edges) == 0:
		return nil, errors.New("model has an edge tier; pass -edge-addr with the edge node address(es)")
	case m.Cfg.UseEdge && len(c.Clouds) > 0:
		return nil, errors.New("model has an edge tier: the gateway dials -edge-addr, and each edge node dials its own -cloud")
	case m.Cfg.UseEdge:
		upstream = c.Edges
	case len(c.Edges) > 0:
		return nil, errors.New("model has no edge tier; drop -edge-addr or retrain with ddnn-train -edge")
	case len(c.Clouds) == 0:
		return nil, errors.New("pass -cloud with the cloud node address(es)")
	}
	var devices []string
	if c.Devices != "" {
		devices = strings.Split(c.Devices, ",")
	}
	if len(devices) < m.Cfg.Devices && c.Register == "" {
		return nil, fmt.Errorf("model needs %d device addresses, got %d (pass -register to let the missing devices join at runtime)", m.Cfg.Devices, len(devices))
	}
	dialCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	eng, err := cluster.AttachEngine(dialCtx, m, cfg, transport.TCP{}, devices, upstream)
	if err != nil {
		return nil, err
	}
	if c.Register != "" {
		if err := eng.ServeRegistration(c.Register); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}
