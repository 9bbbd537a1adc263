package api

import (
	"context"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// FromEngine adapts a serving engine to the Classifier the handlers
// call. Results are returned by value; a failed batch returns only its
// error, never the partial results (a zero Result is indistinguishable
// from a real class-0 local exit).
func FromEngine(eng *cluster.Engine) Classifier { return engineClassifier{eng} }

type engineClassifier struct{ eng *cluster.Engine }

func (c engineClassifier) ClassifyTenantShed(ctx context.Context, sampleID uint64, tenant string, level cluster.ShedLevel) (cluster.Result, error) {
	res, err := c.eng.ClassifyTenantShed(ctx, sampleID, tenant, level)
	if err != nil {
		return cluster.Result{}, err
	}
	return *res, nil
}

func (c engineClassifier) ClassifyBatchTenantShed(ctx context.Context, sampleIDs []uint64, tenant string, level cluster.ShedLevel) ([]cluster.Result, error) {
	results, err := c.eng.ClassifyBatchTenantShed(ctx, sampleIDs, tenant, level)
	if err != nil {
		return nil, err
	}
	out := make([]cluster.Result, len(results))
	for i, r := range results {
		out[i] = *r
	}
	return out, nil
}

func (c engineClassifier) ClassifyUpload(ctx context.Context, views []*tensor.Tensor, level cluster.ShedLevel) (cluster.Result, error) {
	res, err := c.eng.ClassifyUpload(ctx, views, level)
	if err != nil {
		return cluster.Result{}, err
	}
	return *res, nil
}

func (c engineClassifier) UpstreamReplicas() (total, healthy int) {
	pool := c.eng.Gateway().Upstream()
	return pool.Size(), pool.Healthy()
}

func (c engineClassifier) Topology() cluster.TopologyConfig { return c.eng.Topology() }

func (c engineClassifier) SetInstrumentation(in cluster.Instrumentation) {
	c.eng.Gateway().SetInstrumentation(in)
}
