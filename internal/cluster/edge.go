package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/metrics"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// EdgeConfig controls the edge node.
type EdgeConfig struct {
	// CloudTimeout bounds the whole edge→cloud escalation of a sample
	// that misses the edge exit, including any failover retries across
	// cloud replicas — the budget must stay below the gateway's
	// EdgeTimeout or the downstream tier gives up before the edge can
	// answer (or fall back). A replica that dies fast leaves the rest of
	// the budget to the retry; one that hangs consumes it, and the
	// session falls back while the edge's failure detector marks the
	// replica down for later sessions.
	CloudTimeout time.Duration
	// CloudFallback, when true, answers an escalated sample with the
	// edge's own (unconfident) classification if the cloud round trip
	// fails, instead of aborting the session — the serving system keeps
	// answering at reduced accuracy while the WAN path is down.
	CloudFallback bool
}

// DefaultEdgeConfig returns sensible defaults: a 5 s cloud round trip
// bound and best-effort fallback to the edge exit when the cloud is
// unreachable.
func DefaultEdgeConfig() EdgeConfig {
	return EdgeConfig{CloudTimeout: 5 * time.Second, CloudFallback: true}
}

// Edge is the middle tier of a three-tier hierarchy (Fig. 2 configs
// d/e): it receives the present devices' bit-packed feature maps from
// the gateway, aggregates them, runs the edge ConvP section and exit
// head, answers confident samples immediately (ExitEdge), and escalates
// only hard samples' edge feature maps to the cloud (§III-C staged
// escalation, middle stage).
//
// Sessions are demultiplexed by wire session ID on both sides: one
// gateway connection carries any number of interleaved sessions, and
// all sessions share one multiplexed link per cloud replica. The model
// is frozen (read-only), so complete sessions classify in parallel
// goroutines.
type Edge struct {
	server

	cfg EdgeConfig

	cloud *ReplicaPool // nil until ConnectCloud
	// detector beats the cloud pool's links at the default interval, the
	// same loop the gateway runs on its own links.
	detector *detector

	// Meter accumulates the edge→cloud hop's Eq. (1)-style payload
	// bytes under "cloud-upload".
	Meter *metrics.CommMeter

	// nextUpstream numbers the edge's own cloud-pool sessions.
	// Downstream (gateway-assigned) session IDs are only unique per
	// gateway connection, and every connection shares the one cloud
	// replica pool — reusing them there would collide across gateways
	// and misroute verdicts.
	nextUpstream atomic.Uint64
}

// NewEdge constructs the edge node around a trained edge-tier model,
// registered under modelVersion (see NewDevice).
func NewEdge(model *core.Model, modelVersion uint64, cfg EdgeConfig, logger *slog.Logger) (*Edge, error) {
	if !model.Cfg.UseEdge {
		return nil, fmt.Errorf("cluster: edge node needs a model built with UseEdge")
	}
	if cfg.CloudTimeout <= 0 {
		cfg.CloudTimeout = DefaultEdgeConfig().CloudTimeout
	}
	e := &Edge{cfg: cfg, Meter: metrics.NewCommMeter()}
	e.init("edge", model, modelVersion, logger, e.frame, e.run)
	// Closing the cloud links fails escalations still in flight over to
	// CloudFallback, so Close never waits out a cloud timeout. The
	// detector stops first, so no re-dial outlives the pool.
	e.onClose = func() {
		e.detector.close()
		if e.cloud != nil {
			e.cloud.close()
		}
	}
	return e, nil
}

// ConnectCloud dials the upstream cloud replicas and pools them: edge
// escalations load-balance across healthy cloud replicas and retry on
// another replica when one dies mid-session. The edge's failure detector
// then beats the pool's links every second: a silent cloud replica is
// marked down, so escalations skip it instead of waiting out
// CloudTimeout, and its next echo re-admits it. Sessions escalated before
// (or without) a cloud connection fail over per EdgeConfig.CloudFallback.
// The context bounds connection setup only.
func (e *Edge) ConnectCloud(ctx context.Context, tr transport.Transport, addrs ...string) error {
	pool, err := newReplicaPool(ctx, wire.ExitCloud, tr, addrs, e.logger)
	if err != nil {
		return fmt.Errorf("cluster: edge dial cloud: %w", err)
	}
	e.cloud = pool
	e.detector = startDetector("edge", defaultHeartbeatInterval, pool.beat)
	return nil
}

// frame serves one gateway frame: each EdgeClassifyBatch is a whole
// escalation and classifies on a worker; anything else is refused.
func (e *Edge) frame(c *nodeConn, f *wire.Frame) {
	if _, ok := f.Msg.(*wire.EdgeClassifyBatch); ok {
		c.spawn(f)
		return
	}
	_ = c.send(&wire.Error{Session: sessionOf(f.Msg), Code: 400, Msg: fmt.Sprintf("expected EdgeClassifyBatch, got %v", f.Msg.MsgType())})
	f.Release()
}

// run classifies one escalation on a worker, then releases its frame.
func (e *Edge) run(c *nodeConn, f *wire.Frame, sc *scratch) {
	defer f.Release()
	m := f.Msg.(*wire.EdgeClassifyBatch)
	if model, feats := e.escalation(c, sc, m.Session, m.ModelVersion, m.Devices, m.Masks, m.F, m.H, m.W, m.Feats); model != nil {
		e.classify(c, model, m, feats, sc)
	}
}

// classify runs the edge stage for one escalation on the pinned model,
// on the devices' packed features as they arrived and each sample under
// its own presence mask: confident samples exit here (ExitEdge), and only
// the hard remainder rides a single EdgeFeatureBatch to the cloud — the
// partial exit that keeps upstream hops small. The whole session answers
// with one ResultBatch in header order.
func (e *Edge) classify(c *nodeConn, model *core.Model, m *wire.EdgeClassifyBatch, feats [][]byte, sc *scratch) {
	edgeBits, edgeLogits := model.EdgeForwardBits(feats, m.Masks, e.pool)
	defer e.pool.PutBytes(edgeBits)
	probs := sc.softmaxRows(edgeLogits)
	classes := edgeLogits.Dim(1)
	e.pool.Put(edgeLogits)
	verdicts := resize(sc.results.Verdicts, len(m.SampleIDs))
	hard := sc.hard[:0]
	for i, id := range m.SampleIDs {
		verdicts[i] = verdictRow(probs, classes, i, id, wire.ExitEdge)
		// The first relayed threshold is this tier's exit criterion; an
		// empty list means the edge never exits and always escalates.
		confident := len(m.Thresholds) > 0 &&
			nn.NormalizedEntropy(verdicts[i].Probs) <= m.Thresholds[0]
		if !confident {
			hard = append(hard, i)
		}
	}
	sc.hard = hard
	var cloud *wire.Frame // the cloud's verdicts, held until the reply is out
	if len(hard) > 0 {
		f, err := e.escalate(model, m, hard, edgeBits, sc)
		if err != nil && !e.cfg.CloudFallback {
			_ = c.send(&wire.Error{Session: m.Session, Code: 503, Msg: fmt.Sprintf("cloud escalation failed: %v", err)})
			return
		}
		if err != nil {
			// Degrade rather than fail: the hard samples keep the edge's
			// own best-effort verdicts while the cloud is down.
			e.logger.Warn("cloud escalation failed; answering at the edge", "samples", len(hard), "err", err)
		} else {
			cloud = f
			for k, idx := range hard {
				verdicts[idx] = f.Msg.(*wire.ResultBatch).Verdicts[k]
			}
		}
	}
	sc.results = wire.ResultBatch{Session: m.Session, Verdicts: verdicts}
	if err := c.send(&sc.results); err != nil {
		e.logger.Debug("edge verdict failed", "session", m.Session, "err", err)
	}
	cloud.Release()
}

// escalate moves the hard samples' packed edge feature maps to the front
// of edgeBits (every sample's, as EdgeForwardBits returned them) and
// sends them as one EdgeFeatureBatch to a pool-scheduled cloud replica
// under a fresh edge-owned session ID; it returns the cloud's
// ResultBatch frame, whose verdicts follow hard-index order, for the
// caller to release.
func (e *Edge) escalate(model *core.Model, m *wire.EdgeClassifyBatch, hard []int, edgeBits []byte, sc *scratch) (*wire.Frame, error) {
	if e.cloud == nil {
		return nil, fmt.Errorf("edge has no cloud connection")
	}
	upSession := e.nextUpstream.Add(1)
	hardIDs := resize(sc.ids, len(hard))
	sc.ids = hardIDs
	stride := len(edgeBits) / len(m.SampleIDs)
	for k, idx := range hard { // idx ≥ k: a row moves only forward
		hardIDs[k] = m.SampleIDs[idx]
		copy(edgeBits[k*stride:(k+1)*stride], edgeBits[idx*stride:(idx+1)*stride])
	}
	bits := edgeBits[:len(hard)*stride]
	cfg := model.Cfg
	sc.edge = wire.EdgeFeatureBatch{
		Session:      upSession,
		ModelVersion: m.ModelVersion,
		F:            uint16(cfg.EdgeFilters),
		H:            uint16(cfg.FeatureH() / 2),
		W:            uint16(cfg.FeatureW() / 2),
		SampleIDs:    hardIDs,
		Bits:         bits,
	}
	e.Meter.Add("cloud-upload", int64(len(bits)))
	// One overall budget for pick + send + wait + any failover retries,
	// so N hung replicas cannot stack N full timeouts (see CloudTimeout).
	budget := time.Now().Add(e.cfg.CloudTimeout)
	f, err := e.cloud.relay(context.Background(), &sc.stage, upSession, e.cfg.CloudTimeout, budget, &sc.edge)
	if err != nil {
		return nil, err
	}
	switch r := f.Msg.(type) {
	case *wire.ResultBatch:
		if err := checkVerdicts(r.Verdicts, hardIDs); err != nil {
			f.Release()
			return nil, fmt.Errorf("cloud: %w", err)
		}
		return f, nil
	case *wire.Error:
		err = fmt.Errorf("cloud error %d: %s", r.Code, r.Msg)
	default:
		err = fmt.Errorf("expected ResultBatch, got %v", r.MsgType())
	}
	f.Release()
	return nil, err
}
