// Command ddnn-serve runs the public HTTP front door over a DDNN
// serving engine: an authenticated, rate-limited, observable REST API
// (see docs/API.md) answering classify requests from the staged
// device→edge→cloud hierarchy.
//
// By default it trains (or loads) a model and serves a complete
// in-process cluster over in-memory links; with -devices plus -cloud or
// -edge-addr it attaches to running ddnn-node processes over TCP instead
// (raw tensor uploads then answer 501 — remote devices own their
// sensors).
//
// Usage:
//
//	ddnn-serve [-listen 127.0.0.1:8080] [-model model.ddnn] [-edge]
//	           [-epochs 25] [-tokens tokens.txt] [-rate 50] [-burst 100]
//	           [-max-inflight 64] [-concurrency 16] [-batch 32]
//	           [-replicas 1] [-threshold 0.8] [-edge-threshold 0.8]
//	           [-devices host:port,...] [-cloud host:port] [-edge-addr host:port]
//	           [-tenant alice=0.5:0.7] [-register host:port] [-data-seed 1]
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
// and leave the hierarchy at runtime (see ddnn-node -tier device
// -register).
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
	var c cliutil.Cluster
	c.Flags(fs)
	var tenantSpecs cliutil.AddrList
	fs.Var(&tenantSpecs, "tenant", "per-tenant exit thresholds as name=localT[:edgeT] (repeatable); the tenant name is the authenticated client name from -tokens")
	var (
		listen       = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		tokensPath   = fs.String("tokens", "", "token file of client:token lines (empty: open access)")
		adminTokens  = fs.String("admin-tokens", "", "token file for the model lifecycle admin plane (empty: admin endpoints absent); in-process engine only")
		rate         = fs.Float64("rate", 50, "per-client sustained requests/s (0: unlimited)")
		burst        = fs.Float64("burst", 0, "per-client burst depth (0: max(1, rate))")
		maxInflight  = fs.Int("max-inflight", api.DefaultMaxInFlight, "admitted in-flight requests before 503; load sheds to cheaper exits as this nears")
		concurrency  = fs.Int("concurrency", 16, "concurrent classification sessions")
		batch        = fs.Int("batch", ddnn.DefaultMaxBatch, "micro-batch size: coalesce up to this many samples per session (1 = per-sample)")
		threshold    = fs.Float64("threshold", 0.8, "local exit entropy threshold T")
		edgeT        = fs.Float64("edge-threshold", 0.8, "edge exit entropy threshold (edge-tier models)")
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

	if *adminTokens != "" && c.Remote() {
		return fmt.Errorf("-admin-tokens requires the in-process engine: a rollout flips the one registry its nodes share, and ddnn-node processes hold their own")
	}
	train, test := c.Dataset()
	model, version, err := c.Model(train, logger)
	if err != nil {
		return err
	}

	gcfg := ddnn.DefaultGatewayConfig()
	gcfg.Threshold, gcfg.EdgeThreshold = *threshold, *edgeT
	eng, err := c.Engine(context.Background(), model, test, ddnn.EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: *concurrency,
		Batch:          ddnn.BatchConfig{MaxBatch: *batch},
		ModelVersion:   version,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	logger.Info("cluster ready", "remote", c.Remote(), "devices", model.Cfg.Devices, "upstream_replicas", eng.Gateway().Upstream().Size())
	if c.Register != "" {
		logger.Info("registration plane serving", "addr", c.Register, "config_version", eng.Topology().Version)
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
