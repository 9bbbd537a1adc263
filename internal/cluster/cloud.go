package cluster

import (
	"fmt"
	"log/slog"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Cloud is the cloud node: it owns the cloud section of the DDNN and runs
// the final exit, which always classifies. In a two-tier hierarchy it
// receives the present devices' bit-packed feature maps
// (CloudClassifyBatch + one FeatureBatch per device), aggregates them and
// runs the upper NN layers; in a three-tier hierarchy it receives the
// pre-aggregated maps of one EdgeFeatureBatch escalated by the edge node.
//
// Sessions are demultiplexed by wire session ID, so one downstream
// connection carries any number of interleaved sessions; each complete
// session is classified in its own goroutine against the shared read-only
// model.
type Cloud struct {
	server

	model *core.Model
}

// NewCloud constructs the cloud node around a trained model.
func NewCloud(model *core.Model, logger *slog.Logger) *Cloud {
	c := &Cloud{model: model}
	c.init("cloud", model, logger, c.frame)
	return c
}

// frame serves one downstream frame: a two-tier session's header and
// device feature frames accumulate in the connection's session table, an
// edge escalation arrives whole, and each complete session classifies on
// its own goroutine — the model is frozen (read-only), so sessions run
// genuinely in parallel.
func (c *Cloud) frame(nc *nodeConn, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.CloudClassifyBatch:
		if c.model.Cfg.UseEdge {
			_ = nc.send(&wire.Error{Session: m.Session, Code: 400, Msg: "edge-tier model: the cloud accepts EdgeFeatureBatch escalations only"})
			return
		}
		nc.sessions.begin(m.Session, m.ModelVersion, m.Devices, m.SampleIDs, m.Masks, nil)
	case *wire.FeatureBatch:
		if up := nc.sessions.add(m); up != nil {
			nc.add()
			go func() {
				defer nc.done()
				c.classify(nc, up)
			}()
		}
	case *wire.EdgeFeatureBatch:
		if !c.model.Cfg.UseEdge {
			_ = nc.send(&wire.Error{Session: m.Session, Code: 400, Msg: "model has no edge tier; send CloudClassifyBatch + FeatureBatches"})
			return
		}
		model, _, err := c.reg.resolve(m.ModelVersion)
		if err != nil {
			_ = nc.send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
			return
		}
		feat, err := c.unpackEdgeFeatures(model, m)
		if err != nil {
			_ = nc.send(&wire.Error{Session: m.Session, Code: 400, Msg: err.Error()})
			return
		}
		nc.add()
		go func() {
			defer nc.done()
			c.classifyFromEdge(nc, model, m, feat)
		}()
	default:
		_ = nc.send(&wire.Error{Session: sessionOf(msg), Code: 400, Msg: fmt.Sprintf("expected CloudClassifyBatch, FeatureBatch or EdgeFeatureBatch, got %v", msg.MsgType())})
	}
}

// classify runs the cloud section for one complete two-tier session:
// samples sharing a device mask classify in one masked forward pass, and
// the whole session answers with a single ResultBatch whose verdicts
// follow the header's sample order.
func (c *Cloud) classify(nc *nodeConn, up *uploadSession) {
	verdicts := make([]wire.BatchVerdict, len(up.ids))
	for _, grp := range groupByMask(up.masks, up.model.Cfg.Devices) {
		feats := selectGroup(up.feats, grp.indices, len(up.ids), c.pool)
		logits := up.model.CloudForwardPooled(feats, grp.present, c.pool)
		releaseGroup(up.feats, feats, c.pool)
		probs := nn.Softmax(logits)
		c.pool.Put(logits)
		for k, idx := range grp.indices {
			verdicts[idx] = verdictRow(probs, k, up.ids[idx], wire.ExitCloud)
		}
	}
	up.release(c.pool)
	if err := nc.send(&wire.ResultBatch{Session: up.session, Verdicts: verdicts}); err != nil {
		c.logger.Debug("classify reply failed", "session", up.session, "err", err)
	}
}

// unpackEdgeFeatures validates an escalated batch of edge feature maps
// against the model's edge section output shape and assembles the
// [N, F, H, W] batch tensor.
func (c *Cloud) unpackEdgeFeatures(model *core.Model, m *wire.EdgeFeatureBatch) (*tensor.Tensor, error) {
	cfg := model.Cfg
	eh, ew := cfg.FeatureH()/2, cfg.FeatureW()/2
	if int(m.F) != cfg.EdgeFilters || int(m.H) != eh || int(m.W) != ew {
		return nil, fmt.Errorf("edge feature shape %d×%d×%d, model expects %d×%d×%d", m.F, m.H, m.W, cfg.EdgeFilters, eh, ew)
	}
	if len(m.SampleIDs) == 0 {
		return nil, fmt.Errorf("empty edge feature batch")
	}
	feat := c.pool.GetDirty(len(m.SampleIDs), int(m.F), int(m.H), int(m.W))
	for i := range m.SampleIDs {
		if err := model.UnpackFeatureInto(feat, i, m.Sample(i)); err != nil {
			c.pool.Put(feat)
			return nil, err
		}
	}
	return feat, nil
}

// classifyFromEdge runs the cloud section once over a session's
// pre-aggregated edge feature maps — the samples that missed the edge
// exit — and answers with one ResultBatch in SampleIDs order.
func (c *Cloud) classifyFromEdge(nc *nodeConn, model *core.Model, m *wire.EdgeFeatureBatch, feat *tensor.Tensor) {
	logits := model.CloudForwardFromEdgePooled(feat, c.pool)
	c.pool.Put(feat)
	probs := nn.Softmax(logits)
	c.pool.Put(logits)
	verdicts := make([]wire.BatchVerdict, len(m.SampleIDs))
	for i, id := range m.SampleIDs {
		verdicts[i] = verdictRow(probs, i, id, wire.ExitCloud)
	}
	if err := nc.send(&wire.ResultBatch{Session: m.Session, Verdicts: verdicts}); err != nil {
		c.logger.Debug("edge escalation reply failed", "session", m.Session, "err", err)
	}
}
