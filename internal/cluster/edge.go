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
	"github.com/ddnn/ddnn-go/internal/tensor"
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
	// session falls back while fencing removes the replica for later
	// sessions.
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

// NewEdge constructs the edge node around a trained edge-tier model.
func NewEdge(model *core.Model, cfg EdgeConfig, logger *slog.Logger) (*Edge, error) {
	if !model.Cfg.UseEdge {
		return nil, fmt.Errorf("cluster: edge node needs a model built with UseEdge")
	}
	if cfg.CloudTimeout <= 0 {
		cfg.CloudTimeout = DefaultEdgeConfig().CloudTimeout
	}
	e := &Edge{cfg: cfg, Meter: metrics.NewCommMeter()}
	e.init("edge", model, logger, e.frame)
	// Closing the cloud links fails escalations still in flight over to
	// CloudFallback, so Close never waits out a cloud timeout.
	e.onClose = func() {
		if e.cloud != nil {
			e.cloud.close()
		}
	}
	return e, nil
}

// ConnectCloud dials the upstream cloud replicas and pools them: edge
// escalations load-balance across healthy cloud replicas and retry on
// another replica when one dies mid-session. Sessions escalated before
// (or without) a cloud connection fail over per EdgeConfig.CloudFallback.
// The context bounds connection setup only.
func (e *Edge) ConnectCloud(ctx context.Context, tr transport.Transport, addrs ...string) error {
	pool, err := newReplicaPool(ctx, wire.ExitCloud, tr, addrs, true, e.logger)
	if err != nil {
		return fmt.Errorf("cluster: edge dial cloud: %w", err)
	}
	e.cloud = pool
	return nil
}

// frame serves one gateway frame: a session's header and device feature
// frames accumulate in the connection's session table, and each complete
// session classifies on its own goroutine.
func (e *Edge) frame(c *nodeConn, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.EdgeClassifyBatch:
		c.sessions.begin(m.Session, m.ModelVersion, m.Devices, m.SampleIDs, m.Masks, m.Thresholds)
	case *wire.FeatureBatch:
		if up := c.sessions.add(m); up != nil {
			c.add()
			go func() {
				defer c.done()
				e.classify(c, up)
			}()
		}
	default:
		_ = c.send(&wire.Error{Session: sessionOf(msg), Code: 400, Msg: fmt.Sprintf("expected EdgeClassifyBatch or FeatureBatch, got %v", msg.MsgType())})
	}
}

// classify runs the edge stage for one complete session: samples sharing
// a device mask aggregate and run the edge section in one forward pass,
// confident samples exit here (ExitEdge), and only the hard remainder
// rides a single EdgeFeatureBatch to the cloud — the partial exit that
// keeps upstream hops small. The whole session answers with one
// ResultBatch in header order.
func (e *Edge) classify(c *nodeConn, up *uploadSession) {
	n := len(up.ids)
	cfg := up.model.Cfg
	eh, ew := cfg.FeatureH()/2, cfg.FeatureW()/2
	edgeFeats := e.pool.GetDirty(n, cfg.EdgeFilters, eh, ew)
	defer e.pool.Put(edgeFeats)
	verdicts := make([]wire.BatchVerdict, n)
	var hard []int
	for _, grp := range groupByMask(up.masks, cfg.Devices) {
		feats := selectGroup(up.feats, grp.indices, n, e.pool)
		edgeFeat, edgeLogits := up.model.EdgeForwardPooled(feats, grp.present, e.pool)
		releaseGroup(up.feats, feats, e.pool)
		probs := nn.Softmax(edgeLogits)
		e.pool.Put(edgeLogits)
		for k, idx := range grp.indices {
			copy(edgeFeats.Sample(idx), edgeFeat.Sample(k))
			verdicts[idx] = verdictRow(probs, k, up.ids[idx], wire.ExitEdge)
		}
		e.pool.Put(edgeFeat)
	}
	up.release(e.pool)
	// The first relayed threshold is this tier's exit criterion; an empty
	// list means the edge never exits and always escalates.
	for i, v := range verdicts {
		confident := len(up.thresholds) > 0 &&
			nn.NormalizedEntropy(v.Probs) <= up.thresholds[0]
		if !confident {
			hard = append(hard, i)
		}
	}
	if len(hard) > 0 {
		cloudVerdicts, err := e.escalate(up, hard, edgeFeats)
		if err != nil && !e.cfg.CloudFallback {
			_ = c.send(&wire.Error{Session: up.session, Code: 503, Msg: fmt.Sprintf("cloud escalation failed: %v", err)})
			return
		}
		if err != nil {
			// Degrade rather than fail: the hard samples keep the edge's
			// own best-effort verdicts while the cloud is down.
			e.logger.Warn("cloud escalation failed; answering at the edge", "samples", len(hard), "err", err)
		} else {
			for k, idx := range hard {
				verdicts[idx] = cloudVerdicts[k]
			}
		}
	}
	if err := c.send(&wire.ResultBatch{Session: up.session, Verdicts: verdicts}); err != nil {
		e.logger.Debug("edge verdict failed", "session", up.session, "err", err)
	}
}

// escalate packs the hard samples' edge feature rows into one
// EdgeFeatureBatch, forwards it to a pool-scheduled cloud replica under
// a fresh edge-owned session ID and returns the cloud's verdicts in
// hard-index order.
func (e *Edge) escalate(up *uploadSession, hard []int, edgeFeats *tensor.Tensor) ([]wire.BatchVerdict, error) {
	if e.cloud == nil {
		return nil, fmt.Errorf("edge has no cloud connection")
	}
	upSession := e.nextUpstream.Add(1)
	hardIDs := make([]uint64, len(hard))
	var bits []byte
	for k, idx := range hard {
		hardIDs[k] = up.ids[idx]
		bits = append(bits, up.model.PackFeatureSample(edgeFeats, idx)...)
	}
	msg := &wire.EdgeFeatureBatch{
		Session:      upSession,
		ModelVersion: up.modelVersion,
		F:            uint16(edgeFeats.Dim(1)),
		H:            uint16(edgeFeats.Dim(2)),
		W:            uint16(edgeFeats.Dim(3)),
		SampleIDs:    hardIDs,
		Bits:         bits,
	}
	e.Meter.Add("cloud-upload", int64(len(bits)))
	// One overall budget for pick + send + wait + any failover retries,
	// so N hung replicas cannot stack N full timeouts (see CloudTimeout).
	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.CloudTimeout)
	defer cancel()
	reply, err := e.cloud.relay(ctx, upSession, e.cfg.CloudTimeout, msg)
	if err != nil {
		return nil, err
	}
	switch m := reply.(type) {
	case *wire.ResultBatch:
		if len(m.Verdicts) != len(hardIDs) {
			return nil, fmt.Errorf("cloud answered %d verdicts for %d samples", len(m.Verdicts), len(hardIDs))
		}
		for k, v := range m.Verdicts {
			if v.SampleID != hardIDs[k] {
				return nil, fmt.Errorf("cloud verdict %d is for sample %d, want %d", k, v.SampleID, hardIDs[k])
			}
		}
		return m.Verdicts, nil
	case *wire.Error:
		return nil, fmt.Errorf("cloud error %d: %s", m.Code, m.Msg)
	default:
		return nil, fmt.Errorf("expected ResultBatch, got %v", reply.MsgType())
	}
}
