// Command ddnn-serve runs the public HTTP front door over a DDNN
// serving engine: an authenticated, rate-limited, observable REST API
// (see docs/API.md) answering classify requests from the staged
// device→edge→cloud hierarchy.
//
// By default it trains (or loads) a model and serves a complete
// in-process cluster over in-memory links; with -devices/-cloud/-edge
// it attaches to already-running nodes over TCP instead (raw tensor
// uploads then answer 501 — remote devices own their sensors).
//
// Usage:
//
//	ddnn-serve [-listen 127.0.0.1:8080] [-model model.ddnn] [-edge]
//	           [-epochs 25] [-tokens tokens.txt] [-rate 50] [-burst 100]
//	           [-max-inflight 64] [-concurrency 16] [-batch 32]
//	           [-replicas 1] [-threshold 0.8] [-edge-threshold 0.8]
//	           [-devices host:port,...] [-cloud host:port] [-edge-addr host:port]
//	           [-tenant alice=0.5:0.7] [-register host:port]
//	           [-admin-tokens admin.txt] [-drain-timeout 10s]
//
// Without -tokens the API is open (every request runs as the
// "anonymous" client); production deployments should always pass a
// token file of "client:token" lines. SIGINT/SIGTERM drain gracefully:
// the listener closes, in-flight requests finish within -drain-timeout,
// and the process exits 0.
//
// -tenant (repeatable) gives the named client its own exit-threshold
// policy: that client's traffic classifies under name=localT[:edgeT]
// instead of the default -threshold/-edge-threshold, so one cluster
// serves applications with different accuracy/latency trade-offs.
// -register serves the device registration plane so devices can join
// and leave the hierarchy at runtime (see ddnn-device -register).
//
// -admin-tokens mounts the model lifecycle admin plane (POST/GET
// /v1/admin/models, POST /v1/admin/rollout — see docs/OPERATIONS.md)
// behind its own token class, separate from serving tokens. It
// requires the in-process engine: a rolling model reload fences,
// drains and canaries each replica through its registry, which only
// the in-process cluster exposes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
	"github.com/ddnn/ddnn-go/internal/api"
	"github.com/ddnn/ddnn-go/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-serve:", err)
		os.Exit(1)
	}
}

// parseTenant parses one -tenant spec: name=localT[:edgeT]. With no
// edge threshold the local one applies to both exits.
func parseTenant(spec string) (string, ddnn.TenantConfig, error) {
	name, thresholds, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", ddnn.TenantConfig{}, fmt.Errorf("bad -tenant %q: want name=localT[:edgeT]", spec)
	}
	localStr, edgeStr, hasEdge := strings.Cut(thresholds, ":")
	local, err := strconv.ParseFloat(localStr, 64)
	if err != nil {
		return "", ddnn.TenantConfig{}, fmt.Errorf("bad -tenant %q local threshold: %w", spec, err)
	}
	edge := local
	if hasEdge {
		edge, err = strconv.ParseFloat(edgeStr, 64)
		if err != nil {
			return "", ddnn.TenantConfig{}, fmt.Errorf("bad -tenant %q edge threshold: %w", spec, err)
		}
	}
	return name, ddnn.TenantConfig{LocalThreshold: local, EdgeThreshold: edge}, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddnn-serve", flag.ContinueOnError)
	var cloudAddrs, edgeAddrs, tenantSpecs cliutil.AddrList
	fs.Var(&cloudAddrs, "cloud", "cloud replica address to attach to (repeatable; with -devices)")
	fs.Var(&edgeAddrs, "edge-addr", "edge replica address to attach to (repeatable; with -devices, edge-tier models)")
	fs.Var(&tenantSpecs, "tenant", "per-tenant exit thresholds as name=localT[:edgeT] (repeatable); the tenant name is the authenticated client name from -tokens")
	var (
		listen       = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		modelPath    = fs.String("model", "", "trained model file (empty: train now)")
		useEdge      = fs.Bool("edge", false, "train with an edge tier when -model is empty")
		epochs       = fs.Int("epochs", 25, "training epochs when -model is empty")
		tokensPath   = fs.String("tokens", "", "token file of client:token lines (empty: open access)")
		adminTokens  = fs.String("admin-tokens", "", "token file for the model lifecycle admin plane (empty: admin endpoints absent); in-process engine only")
		rate         = fs.Float64("rate", 50, "per-client sustained requests/s (0: unlimited)")
		burst        = fs.Float64("burst", 0, "per-client burst depth (0: max(1, rate))")
		maxInflight  = fs.Int("max-inflight", api.DefaultMaxInFlight, "admitted in-flight requests before 503; load sheds to cheaper exits as this nears")
		concurrency  = fs.Int("concurrency", 16, "concurrent classification sessions")
		batch        = fs.Int("batch", ddnn.DefaultMaxBatch, "micro-batch size: coalesce up to this many samples per session (1 = per-sample)")
		replicas     = fs.Int("replicas", 1, "replicas of each upper tier (in-process engine only)")
		threshold    = fs.Float64("threshold", 0.8, "local exit entropy threshold T")
		edgeT        = fs.Float64("edge-threshold", 0.8, "edge exit entropy threshold (edge-tier models)")
		devices      = fs.String("devices", "", "attach to running device nodes at these comma-separated addresses instead of simulating in-process; with -register, fewer entries than the model has slots (or empty entries) leave those slots absent until a device registers")
		register     = fs.String("register", "", "serve the device registration plane on this address so devices join/leave at runtime (ddnn-device -register)")
		dataSeed     = fs.Int64("data-seed", 1, "dataset seed")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	logger.Info("compute kernels", "path", ddnn.KernelPath())

	var auth *api.Authenticator
	if *tokensPath != "" {
		a, err := api.LoadTokenFile(*tokensPath)
		if err != nil {
			return err
		}
		auth = a
		logger.Info("authentication enabled", "clients", a.Len())
	} else {
		logger.Warn("no -tokens file: API is open to unauthenticated clients")
	}

	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Seed = *dataSeed
	train, test := ddnn.GenerateDataset(dcfg)

	var model *ddnn.Model
	if *modelPath != "" {
		m, err := ddnn.LoadModel(*modelPath)
		if err != nil {
			return err
		}
		model = m
		logger.Info("model loaded", "path", *modelPath)
	} else {
		cfg := ddnn.DefaultConfig()
		cfg.UseEdge = *useEdge
		model = ddnn.MustNewModel(cfg)
		tc := ddnn.DefaultTrainConfig()
		tc.Epochs = *epochs
		logger.Info("training model", "epochs", *epochs)
		if _, err := model.Train(train, tc); err != nil {
			return err
		}
	}

	gcfg := ddnn.DefaultGatewayConfig()
	gcfg.Threshold, gcfg.EdgeThreshold = *threshold, *edgeT
	ecfg := ddnn.EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: *concurrency,
		Batch:          ddnn.BatchConfig{MaxBatch: *batch},
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	var eng *ddnn.Engine
	if *devices != "" {
		deviceAddrs := strings.Split(*devices, ",")
		upstream := []string(cloudAddrs)
		if model.Cfg.UseEdge {
			if len(edgeAddrs) == 0 {
				return fmt.Errorf("model has an edge tier; pass -edge-addr with the ddnn-edge address(es)")
			}
			upstream = edgeAddrs
		} else if len(cloudAddrs) == 0 {
			return fmt.Errorf("pass -cloud with the ddnn-cloud address(es)")
		}
		dialCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e, err := ddnn.Connect(dialCtx, model, deviceAddrs, upstream, ecfg)
		cancel()
		if err != nil {
			return err
		}
		eng = e
		logger.Info("attached to cluster", "devices", len(deviceAddrs), "upstream", len(upstream))
	} else {
		ecfg.EdgeReplicas, ecfg.CloudReplicas = *replicas, *replicas
		e, err := ddnn.NewEngine(model, test, ecfg)
		if err != nil {
			return err
		}
		eng = e
		logger.Info("in-process cluster started", "devices", model.Cfg.Devices, "replicas", *replicas)
	}
	defer eng.Close()

	if *register != "" {
		if err := eng.ServeRegistration(*register); err != nil {
			return err
		}
		logger.Info("registration plane serving", "addr", *register, "config_version", eng.ConfigVersion())
	}
	for _, spec := range tenantSpecs {
		name, tc, err := parseTenant(spec)
		if err != nil {
			return err
		}
		v, err := eng.SetTenant(name, tc)
		if err != nil {
			return err
		}
		logger.Info("tenant configured", "tenant", name,
			"local_threshold", tc.LocalThreshold, "edge_threshold", tc.EdgeThreshold, "config_version", v)
	}

	acfg := api.Config{
		Engine:      api.FromEngine(eng),
		Devices:     model.Cfg.Devices,
		Auth:        auth,
		RatePerSec:  *rate,
		Burst:       *burst,
		MaxInFlight: *maxInflight,
		Logger:      logger,
	}
	if *adminTokens != "" {
		if *devices != "" {
			return fmt.Errorf("-admin-tokens requires the in-process engine: rolling model reloads need registry access on every node")
		}
		aa, err := api.LoadTokenFile(*adminTokens)
		if err != nil {
			return err
		}
		acfg.AdminAuth = aa
		acfg.ModelAdmin = eng
		logger.Info("model admin plane enabled", "admins", aa.Len(), "model_version", eng.ModelVersion())
	}
	srv, err := api.NewServer(acfg)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, let
	// in-flight requests finish within the deadline, and exit 0.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", *listen)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain_timeout", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain deadline exceeded; closing remaining connections", "err", err)
		_ = httpSrv.Close()
	}
	<-errCh
	logger.Info("drained; goodbye")
	return nil
}
