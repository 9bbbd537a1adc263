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

// NewCloud constructs the cloud node around a trained model, registered
// under modelVersion (see NewDevice).
func NewCloud(model *core.Model, modelVersion uint64, logger *slog.Logger) *Cloud {
	c := &Cloud{model: model}
	c.init("cloud", model, modelVersion, logger, c.frame, c.run)
	return c
}

// frame serves one downstream frame: a two-tier session's header and
// device feature frames accumulate in the connection's session table, an
// edge escalation arrives whole, and each complete session classifies on
// a worker — the model is frozen (read-only), so sessions run genuinely
// in parallel.
func (c *Cloud) frame(nc *nodeConn, f *wire.Frame) {
	switch m := f.Msg.(type) {
	case *wire.CloudClassifyBatch:
		if c.model.Cfg.UseEdge {
			_ = nc.send(&wire.Error{Session: m.Session, Code: 400, Msg: "edge-tier model: the cloud accepts EdgeFeatureBatch escalations only"})
		} else {
			nc.sessions.begin(m.Session, m.ModelVersion, m.Devices, m.SampleIDs, m.Masks, nil)
		}
		f.Release()
	case *wire.FeatureBatch:
		if up := nc.sessions.add(f); up != nil {
			nc.spawn(task{up: up})
		}
	case *wire.EdgeFeatureBatch:
		if !c.model.Cfg.UseEdge {
			_ = nc.send(&wire.Error{Session: m.Session, Code: 400, Msg: "model has no edge tier; send CloudClassifyBatch + FeatureBatches"})
			f.Release()
			return
		}
		nc.spawn(task{f: f})
	default:
		_ = nc.send(&wire.Error{Session: sessionOf(f.Msg), Code: 400, Msg: fmt.Sprintf("expected CloudClassifyBatch, FeatureBatch or EdgeFeatureBatch, got %v", f.Msg.MsgType())})
		f.Release()
	}
}

// run serves one task on a worker: a complete two-tier session, or an
// edge escalation frame.
func (c *Cloud) run(nc *nodeConn, t task, sc *scratch) {
	if t.up != nil {
		c.classify(nc, t.up, sc)
		nc.sessions.release(t.up)
		return
	}
	defer t.f.Release()
	m := t.f.Msg.(*wire.EdgeFeatureBatch)
	model, _, err := c.reg.resolve(m.ModelVersion)
	if err != nil {
		_ = nc.send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
		return
	}
	if err := checkEdgeFeatures(model.Cfg, m); err != nil {
		_ = nc.send(&wire.Error{Session: m.Session, Code: 400, Msg: err.Error()})
		return
	}
	c.classifyFromEdge(nc, model, m, sc)
}

// classify runs the cloud section for one complete two-tier session, on
// the devices' packed features as they arrived and each sample under its
// own presence mask, and answers with a single ResultBatch whose
// verdicts follow the header's sample order.
func (c *Cloud) classify(nc *nodeConn, up *uploadSession, sc *scratch) {
	logits := up.model.CloudForwardBits(up.bits, up.masks, c.pool)
	c.reply(nc, up.session, up.ids, logits, sc)
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

// classifyFromEdge runs the cloud section once over a session's
// pre-aggregated edge feature maps — the samples that missed the edge
// exit, packed as they arrived — and answers with one ResultBatch in
// SampleIDs order.
func (c *Cloud) classifyFromEdge(nc *nodeConn, model *core.Model, m *wire.EdgeFeatureBatch, sc *scratch) {
	logits := model.CloudForwardFromEdgeBits(m.Bits, len(m.SampleIDs), c.pool)
	c.reply(nc, m.Session, m.SampleIDs, logits, sc)
}
