package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/api"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// workload is one named traffic mix. The names are fixed: later changes
// are judged per workload and refer to them.
type workload struct {
	name string
	// edge serves the three-tier device→edge→cloud model.
	edge bool
	// wan puts the §IV-B link profiles on every hop; otherwise links
	// are zero-latency in-memory pipes.
	wan bool
	// maxBatch is EngineConfig.Batch.MaxBatch (0: micro-batching off).
	maxBatch int
	// local, edgeShare and cloud are the target exit mix; the exit
	// thresholds are chosen from the staged reference to hit it.
	local, edgeShare, cloud float64
	// escalateAll sets the local threshold to -1 instead.
	escalateAll bool
	// callSize is the number of sample IDs per timed engine call
	// (1: Classify, >1: ClassifyBatch); unused by the HTTP workload.
	callSize int
	// ratePerSec > 0 makes the workload open-loop through internal/api
	// at this arrival rate; otherwise it is closed-loop.
	ratePerSec float64
	// uploadShare is the share of HTTP requests that carry a raw tensor.
	uploadShare float64
}

// httpRate is the fixed offered rate of http_open. At 500 req/s the
// seed commit holds latency_p99_ms <= 25 with achieved_share >= 0.99 on
// the reference box (2 cores).
const httpRate = 500

var workloads = []*workload{
	{name: "wan_single", wan: true, local: 0.6, cloud: 0.4, callSize: 1},
	{name: "wan_batch", edge: true, wan: true, maxBatch: 32, local: 0.6, edgeShare: 0.2, cloud: 0.2, callSize: 32},
	{name: "mem_batch", maxBatch: 32, escalateAll: true, cloud: 1, callSize: 32},
	{name: "http_open", maxBatch: 32, local: 0.6, cloud: 0.4, ratePerSec: httpRate, uploadShare: 0.1},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Fixed set-up parameters: the quick synthetic MVMC split and a
// fixed-seed model, so every run serves the same weights and only the
// traffic depends on -seed.
const (
	trainSamples = 200
	testSamples  = 60
	trainEpochs  = 2
	evalBatch    = 32
	// httpClient and httpToken are the one identity the front door knows.
	httpClient = "bench"
	httpToken  = "bench-token"
)

// fixture is a started system under test plus everything needed to
// drive and check it.
type fixture struct {
	wl    *workload
	model *core.Model
	test  *dataset.Dataset
	ver   *verifier
	rec   *recorder
	eng   *cluster.Engine
	sut   *engineAdapter
	front http.Handler // http_open only
	// uploads[i] is the raw-tensor request body of test sample i
	// (http_open only).
	uploads [][]byte
	trace   *traceLog // nil when not tracing
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

// buildFixture performs the whole set-up short of warm-up: dataset,
// training, staged reference, thresholds and cluster start.
func buildFixture(wl *workload, trace bool) (*fixture, error) {
	dc := dataset.DefaultConfig()
	dc.Train, dc.Test = trainSamples, testSamples
	train, test, err := dataset.Generate(dc)
	if err != nil {
		return nil, err
	}
	model, err := newModel(wl)
	if err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs, tc.BatchSize = trainEpochs, evalBatch
	if _, err := model.Train(train, tc); err != nil {
		return nil, err
	}
	return startFixture(wl, model, test, trace)
}

// newModel builds the workload's architecture with its fixed-seed
// initial weights: MP local aggregation and CC above it, the scheme the
// paper settles on, with the edge tier for three-tier workloads.
func newModel(wl *workload) (*core.Model, error) {
	mc := core.DefaultConfig()
	mc.UseEdge = wl.edge
	mc.LocalAgg, mc.EdgeAgg, mc.CloudAgg = agg.MP, agg.CC, agg.CC
	return core.NewModel(mc)
}

// startFixture computes the staged reference and the thresholds for
// the model and starts the cluster that serves it.
func startFixture(wl *workload, model *core.Model, test *dataset.Dataset, trace bool) (*fixture, error) {
	ver := newVerifier(model, test)
	gcfg := cluster.DefaultGatewayConfig()
	if wl.escalateAll {
		gcfg.Threshold = -1
	} else {
		var err error
		gcfg.Threshold, gcfg.EdgeThreshold, err = mixThresholds(ver.reference(nil, 1), wl.local, wl.edgeShare, wl.cloud)
		if err != nil {
			return nil, err
		}
	}
	ver.pipeline = cluster.BuildPipeline(model.Cfg, gcfg.Threshold, gcfg.EdgeThreshold)

	var inner transport.Transport = transport.NewMem()
	if wl.wan {
		// The same routing NewEngine applies for EngineConfig link
		// profiles, composed here so the recorder wraps the simulator
		// and sees a frame before its simulated delay.
		inner = transport.RouteSim{Inner: inner, Pick: func(addr string) transport.LinkProfile {
			switch {
			case strings.HasPrefix(addr, "cloud"):
				return transport.GatewayToCloud
			case strings.HasPrefix(addr, "edge"):
				return transport.GatewayToEdge
			default:
				return transport.DeviceToGateway
			}
		}}
	}
	f := &fixture{wl: wl, model: model, test: test, ver: ver}
	f.rec = newRecorder(inner, wl.edge)
	if trace {
		f.trace = newTraceLog(f.rec)
	}
	// MaxConcurrency is left at its default (16), the ddnn-serve value.
	var err error
	f.eng, err = cluster.NewEngine(model, test, cluster.EngineConfig{
		Gateway: gcfg,
		Batch:   cluster.BatchConfig{MaxBatch: wl.maxBatch},
		Logger:  quietLogger(),
	}, f.rec)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	f.sut = &engineAdapter{eng: f.eng, trace: f.trace}
	if wl.ratePerSec > 0 {
		srv, err := api.NewServer(api.Config{
			Engine:  f.sut,
			Devices: model.Cfg.Devices,
			Auth:    api.NewAuthenticator(map[string]string{httpClient: httpToken}),
			Logger:  quietLogger(),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.front = srv.Handler()
		f.uploads = make([][]byte, test.Len())
		for i := range f.uploads {
			f.uploads[i] = uploadBody(test, i)
		}
	} else if trace {
		f.sut.SetInstrumentation(cluster.Instrumentation{})
	}
	return f, nil
}

func (f *fixture) close() {
	if err := f.eng.Close(); err != nil {
		fmt.Fprintln(logOut, "close engine:", err)
	}
}

// mixThresholds picks the local (and, for three-tier models, edge) exit
// thresholds as entropy quantiles of the staged reference, so the exit
// mix is a workload parameter that survives retraining. Each threshold
// lies midway between two neighbouring entropies, never on one.
func mixThresholds(ref *core.EvalResult, local, edge, cloud float64) (localT, edgeT float64, err error) {
	n := len(ref.LocalProbs)
	type entry struct {
		id int
		h  float64
	}
	locals := make([]entry, n)
	for i, p := range ref.LocalProbs {
		locals[i] = entry{i, nn.NormalizedEntropy(p)}
	}
	sort.Slice(locals, func(a, b int) bool { return locals[a].h < locals[b].h })
	// split returns a threshold with about share of es at or below it
	// and how many that is. Where the quantile falls inside a run of
	// equal entropies it moves to the nearest gap; checkMix then decides
	// whether the mix is still the workload's.
	split := func(es []entry, share float64) (float64, int, error) {
		k := int(share*float64(len(es)) + 0.5)
		for off := 0; off < len(es); off++ {
			for _, j := range []int{k - off, k + off} {
				if j > 0 && j < len(es) && es[j-1].h < es[j].h {
					return (es[j-1].h + es[j].h) / 2, j, nil
				}
			}
		}
		return 0, 0, fmt.Errorf("no threshold puts %.2f of %d samples on one side: all entropies are equal", share, len(es))
	}
	localT, k, err := split(locals, local)
	if err != nil {
		return 0, 0, err
	}
	edgeT = cluster.DefaultGatewayConfig().EdgeThreshold
	if ref.EdgeProbs == nil {
		return localT, edgeT, nil
	}
	rest := make([]entry, 0, n-k)
	for _, e := range locals[k:] {
		rest = append(rest, entry{e.id, nn.NormalizedEntropy(ref.EdgeProbs[e.id])})
	}
	sort.Slice(rest, func(a, b int) bool { return rest[a].h < rest[b].h })
	edgeT, _, err = split(rest, edge/(edge+cloud))
	return localT, edgeT, err
}

// idStream yields dataset sample IDs as back-to-back seeded
// permutations of the test split: every run of len(test) draws holds
// each sample once, so the realised exit mix equals the reference mix
// instead of wandering with the draw.
type idStream struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newIDStream(seed int64, n int) *idStream {
	s := &idStream{rng: rand.New(rand.NewSource(seed)), perm: make([]int, n)}
	for i := range s.perm {
		s.perm[i] = i
	}
	s.pos = n
	return s
}

func (s *idStream) next() uint64 {
	if s.pos == len(s.perm) {
		s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	id := s.perm[s.pos]
	s.pos++
	return uint64(id)
}

func (s *idStream) take(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = s.next()
	}
	return ids
}

// exitCounts tallies verified classifications per exit point.
type exitCounts [4]int64 // indexed by wire.ExitPoint (1..3)

func (c *exitCounts) total() int64 {
	return c[wire.ExitLocal] + c[wire.ExitEdge] + c[wire.ExitCloud]
}

// checkMix fails the run when the realised exit mix is more than two
// points off the workload's target: the numbers would then describe a
// different workload.
func (wl *workload) checkMix(c exitCounts) error {
	total := float64(c.total())
	if total == 0 {
		return fmt.Errorf("no classifications")
	}
	want := map[wire.ExitPoint]float64{wire.ExitLocal: wl.local, wire.ExitEdge: wl.edgeShare, wire.ExitCloud: wl.cloud}
	for exit, target := range want {
		got := float64(c[exit]) / total
		if got < target-0.02 || got > target+0.02 {
			return fmt.Errorf("%s exit share %.3f is more than 2 points off the target %.2f", exit, got, target)
		}
	}
	return nil
}

// warmupDuration runs before every measured window and is excluded from
// it: pools fill, the collector's lanes exist, the Go heap reaches its
// steady size.
const warmupDuration = time.Second

func (f *fixture) warmup(ctx context.Context, seed int64) error {
	res := f.drive(ctx, seed^0x5eed, warmupDuration)
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed: %s", res.failed, res.attempted, res.firstFailure)
	}
	return nil
}
