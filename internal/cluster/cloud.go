package cluster

import (
	"fmt"
	"log/slog"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Cloud is the cloud node: it owns the cloud section of the DDNN and runs
// the final exit, which always classifies. In a two-tier hierarchy it
// receives the present devices' bit-packed feature maps inside one
// CloudClassifyBatch, aggregates them and runs the upper NN layers; in a
// three-tier hierarchy it receives the pre-aggregated maps of one
// EdgeFeatureBatch escalated by the edge node.
//
// Every escalation is one frame tagged with its wire session ID, so one
// downstream connection carries any number of interleaved sessions; each
// is classified on a connection worker against the shared read-only
// model.
type Cloud struct {
	server

	model *core.Model
}

// NewCloud constructs the cloud node around a trained model, registered
// under modelVersion (see NewDevice).
func NewCloud(model *core.Model, modelVersion uint64, logger *slog.Logger) *Cloud {
	c := &Cloud{model: model}
	c.init("cloud", model, modelVersion, logger, c.frame, c.run)
	return c
}

// frame serves one downstream frame: the escalation frame of the
// hierarchy — CloudClassifyBatch on two tiers, EdgeFeatureBatch on three
// — classifies on a worker (the model is frozen, so sessions run
// genuinely in parallel), and anything else is refused.
func (c *Cloud) frame(nc *nodeConn, f *wire.Frame) {
	var refuse string
	switch f.Msg.(type) {
	case *wire.CloudClassifyBatch:
		if c.model.Cfg.UseEdge {
			refuse = "edge-tier model: the cloud accepts EdgeFeatureBatch escalations only"
		}
	case *wire.EdgeFeatureBatch:
		if !c.model.Cfg.UseEdge {
			refuse = "model has no edge tier; send CloudClassifyBatch"
		}
	default:
		refuse = fmt.Sprintf("expected CloudClassifyBatch or EdgeFeatureBatch, got %v", f.Msg.MsgType())
	}
	if refuse != "" {
		_ = nc.send(&wire.Error{Session: sessionOf(f.Msg), Code: 400, Msg: refuse})
		f.Release()
		return
	}
	nc.spawn(f)
}

// run classifies one escalation on a worker, on the pinned model
// version's weights, and answers with a single ResultBatch whose verdicts
// follow the frame's sample order.
func (c *Cloud) run(nc *nodeConn, f *wire.Frame, sc *scratch) {
	defer f.Release()
	switch m := f.Msg.(type) {
	case *wire.CloudClassifyBatch:
		// Each sample runs under its own presence mask, on the devices'
		// packed features as they arrived.
		model, feats := c.escalation(nc, sc, m.Session, m.ModelVersion, m.Devices, m.Masks, m.F, m.H, m.W, m.Feats)
		if model != nil {
			c.reply(nc, m.Session, m.SampleIDs, model.CloudForwardBits(feats, m.Masks, c.pool), sc)
		}
	case *wire.EdgeFeatureBatch:
		model, _, err := c.reg.resolve(m.ModelVersion)
		if err != nil {
			_ = nc.send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
			return
		}
		if err := checkEdgeFeatures(model.Cfg, m); err != nil {
			_ = nc.send(&wire.Error{Session: m.Session, Code: 400, Msg: err.Error()})
			return
		}
		c.reply(nc, m.Session, m.SampleIDs, model.CloudForwardFromEdgeBits(m.Bits, len(m.SampleIDs), c.pool), sc)
	}
}

// reply answers a session with its cloud verdicts, one per logits row in
// ids order, and retires the logits to the pool.
func (c *Cloud) reply(nc *nodeConn, session uint64, ids []uint64, logits *tensor.Tensor, sc *scratch) {
	probs := sc.softmaxRows(logits)
	classes := logits.Dim(1)
	c.pool.Put(logits)
	verdicts := resize(sc.results.Verdicts, len(ids))
	for i, id := range ids {
		verdicts[i] = verdictRow(probs, classes, i, id, wire.ExitCloud)
	}
	sc.results = wire.ResultBatch{Session: session, Verdicts: verdicts}
	if err := nc.send(&sc.results); err != nil {
		c.logger.Debug("classify reply failed", "session", session, "err", err)
	}
}

// checkEdgeFeatures validates an escalated batch of edge feature maps
// against the model's edge section output shape; the wire codec has
// already matched the payload to the shape and sample count.
func checkEdgeFeatures(cfg core.Config, m *wire.EdgeFeatureBatch) error {
	eh, ew := cfg.FeatureH()/2, cfg.FeatureW()/2
	if int(m.F) != cfg.EdgeFilters || int(m.H) != eh || int(m.W) != ew {
		return fmt.Errorf("edge feature shape %d×%d×%d, model expects %d×%d×%d", m.F, m.H, m.W, cfg.EdgeFilters, eh, ew)
	}
	if len(m.SampleIDs) == 0 {
		return fmt.Errorf("empty edge feature batch")
	}
	return nil
}
