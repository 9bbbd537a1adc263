package main

import (
	"context"

	"github.com/ddnn/ddnn-go/internal/api"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// engineAdapter is the one place the benchmark calls into
// cluster.Engine. The closed-loop drivers call it directly and
// internal/api calls it as its api.Classifier, so when tracing every
// engine call — whatever issued it — is recorded as one span at the
// cluster.engine boundary.
type engineAdapter struct {
	eng   *cluster.Engine
	trace *traceLog // nil when not tracing
}

var _ api.Classifier = (*engineAdapter)(nil)

// spanKey carries the caller's span ID through a context, so an engine
// call made by the HTTP handler is recorded as the handler span's child.
type spanKey struct{}

// begin reads the trace clock before an engine call; 0 when not tracing.
func (a *engineAdapter) begin() int64 {
	if !a.trace.active() {
		return 0
	}
	return a.trace.rec.now()
}

// observe records one finished engine call that began at start.
func (a *engineAdapter) observe(ctx context.Context, start int64, results []*cluster.Result, err error) {
	if start == 0 {
		return
	}
	call := engineCall{start: start, end: a.trace.rec.now(), failed: err != nil}
	call.parent, _ = ctx.Value(spanKey{}).(uint64)
	for _, r := range results {
		if r != nil {
			call.session = max(call.session, r.Latency)
		}
	}
	a.trace.addCall(call)
}

func (a *engineAdapter) classify(ctx context.Context, sampleID uint64, tenant string, level cluster.ShedLevel) (*cluster.Result, error) {
	start := a.begin()
	res, err := a.eng.ClassifyTenantShed(ctx, sampleID, tenant, level)
	a.observe(ctx, start, []*cluster.Result{res}, err)
	return res, err
}

func (a *engineAdapter) classifyBatch(ctx context.Context, sampleIDs []uint64, tenant string, level cluster.ShedLevel) ([]*cluster.Result, error) {
	start := a.begin()
	results, err := a.eng.ClassifyBatchTenantShed(ctx, sampleIDs, tenant, level)
	a.observe(ctx, start, results, err)
	return results, err
}

func (a *engineAdapter) ClassifyTenantShed(ctx context.Context, sampleID uint64, tenant string, level cluster.ShedLevel) (cluster.Result, error) {
	res, err := a.classify(ctx, sampleID, tenant, level)
	if err != nil {
		return cluster.Result{}, err
	}
	return *res, nil
}

func (a *engineAdapter) ClassifyBatchTenantShed(ctx context.Context, sampleIDs []uint64, tenant string, level cluster.ShedLevel) ([]cluster.Result, error) {
	results, err := a.classifyBatch(ctx, sampleIDs, tenant, level)
	if err != nil {
		return nil, err
	}
	out := make([]cluster.Result, len(results))
	for i, r := range results {
		out[i] = *r
	}
	return out, nil
}

func (a *engineAdapter) ClassifyUpload(ctx context.Context, views []*tensor.Tensor, level cluster.ShedLevel) (cluster.Result, error) {
	start := a.begin()
	res, err := a.eng.ClassifyUpload(ctx, views, level)
	a.observe(ctx, start, []*cluster.Result{res}, err)
	if err != nil {
		return cluster.Result{}, err
	}
	return *res, nil
}

func (a *engineAdapter) UpstreamReplicas() (total, healthy int) {
	pool := a.eng.Gateway().Upstream()
	return pool.Size(), pool.Healthy()
}

func (a *engineAdapter) Topology() cluster.TopologyConfig { return a.eng.Topology() }

// SetInstrumentation installs the caller's gateway hooks (internal/api
// installs its metrics catalogue, as under ddnn-serve) and, when
// tracing, the benchmark's own hook log beside them.
func (a *engineAdapter) SetInstrumentation(in cluster.Instrumentation) {
	if a.trace != nil {
		in = a.trace.hooks(in)
	}
	a.eng.Gateway().SetInstrumentation(in)
}
