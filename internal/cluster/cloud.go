package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
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
	model  *core.Model
	reg    *modelRegistry
	logger *slog.Logger

	failed atomic.Bool
	// active counts in-flight classifications (goroutines spawned by the
	// connection handlers); Drain polls it to zero before tearing down.
	active atomic.Int64

	// pool recycles session feature maps and forward tensors across
	// classifications, keeping the steady-state handler allocation-free.
	pool *tensor.Pool

	listener  net.Listener
	wg        sync.WaitGroup
	closeOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewCloud constructs the cloud node around a trained model.
func NewCloud(model *core.Model, logger *slog.Logger) *Cloud {
	if logger == nil {
		logger = slog.Default()
	}
	return &Cloud{
		model:  model,
		reg:    newModelRegistry(model, 1),
		logger: logger.With("node", "cloud"),
		pool:   tensor.NewPool(),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Serve starts accepting gateway connections.
func (c *Cloud) Serve(tr transport.Transport, addr string) error {
	l, err := tr.Listen(addr)
	if err != nil {
		return fmt.Errorf("cluster: cloud: %w", err)
	}
	c.listener = l
	c.wg.Add(1)
	go c.acceptLoop()
	return nil
}

// Addr returns the listener's address; it is only valid after Serve.
func (c *Cloud) Addr() string {
	if c.listener == nil {
		return ""
	}
	return c.listener.Addr().String()
}

// SetFailed toggles simulated failure: a failed cloud replica goes
// silent, which downstream tiers observe as escalation timeouts — their
// replica pools then fence it and fail sessions over to the remaining
// replicas.
func (c *Cloud) SetFailed(failed bool) { c.failed.Store(failed) }

// Failed reports the simulated-failure state.
func (c *Cloud) Failed() bool { return c.failed.Load() }

func (c *Cloud) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return
		}
		c.connMu.Lock()
		if c.closed {
			c.connMu.Unlock()
			conn.Close()
			continue
		}
		c.conns[conn] = struct{}{}
		c.connMu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer func() {
				conn.Close()
				c.connMu.Lock()
				delete(c.conns, conn)
				c.connMu.Unlock()
			}()
			c.handle(conn)
		}()
	}
}

func (c *Cloud) handle(conn net.Conn) {
	var wmu sync.Mutex
	send := func(m wire.Message) error {
		wmu.Lock()
		defer wmu.Unlock()
		_, err := wire.Encode(conn, m)
		return err
	}
	sessions := sessionTable{reg: c.reg, pool: c.pool, send: send, open: make(map[uint64]*uploadSession)}
	defer sessions.release()
	var inflight sync.WaitGroup
	defer inflight.Wait()
	// run classifies one complete session in its own goroutine; the
	// model is frozen (read-only) so sessions run genuinely in parallel.
	run := func(classify func()) {
		inflight.Add(1)
		c.active.Add(1)
		go func() {
			defer inflight.Done()
			defer c.active.Add(-1)
			classify()
		}()
	}
	for {
		msg, err := wire.Decode(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.logger.Debug("decode error", "err", err)
			}
			return
		}
		if c.failed.Load() {
			// A crashed cloud replica goes silent; the downstream pool's
			// escalation timeout and failover handle the rest.
			continue
		}
		switch m := msg.(type) {
		case *wire.Heartbeat:
			// Echo liveness probes so the downstream tier's failure
			// detector can watch the cloud.
			if err := send(m); err != nil {
				return
			}
		case *wire.CloudClassifyBatch:
			if c.model.Cfg.UseEdge {
				_ = send(&wire.Error{Session: m.Session, Code: 400, Msg: "edge-tier model: the cloud accepts EdgeFeatureBatch escalations only"})
				continue
			}
			sessions.begin(m.Session, m.ModelVersion, m.Devices, m.SampleIDs, m.Masks, nil)
		case *wire.FeatureBatch:
			if up := sessions.add(m); up != nil {
				run(func() { c.classify(send, up) })
			}
		case *wire.EdgeFeatureBatch:
			if !c.model.Cfg.UseEdge {
				_ = send(&wire.Error{Session: m.Session, Code: 400, Msg: "model has no edge tier; send CloudClassifyBatch + FeatureBatches"})
				continue
			}
			model, _, err := c.reg.resolve(m.ModelVersion)
			if err != nil {
				_ = send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
				continue
			}
			feat, err := c.unpackEdgeFeatures(model, m)
			if err != nil {
				_ = send(&wire.Error{Session: m.Session, Code: 400, Msg: err.Error()})
				continue
			}
			run(func() { c.classifyFromEdge(send, model, m, feat) })
		default:
			_ = send(&wire.Error{Session: sessionOf(msg), Code: 400, Msg: fmt.Sprintf("expected CloudClassifyBatch, FeatureBatch or EdgeFeatureBatch, got %v", msg.MsgType())})
		}
	}
}

// classify runs the cloud section for one complete two-tier session:
// samples sharing a device mask classify in one masked forward pass, and
// the whole session answers with a single ResultBatch whose verdicts
// follow the header's sample order.
func (c *Cloud) classify(send func(wire.Message) error, up *uploadSession) {
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
	if err := send(&wire.ResultBatch{Session: up.session, Verdicts: verdicts}); err != nil {
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
func (c *Cloud) classifyFromEdge(send func(wire.Message) error, model *core.Model, m *wire.EdgeFeatureBatch, feat *tensor.Tensor) {
	logits := model.CloudForwardFromEdgePooled(feat, c.pool)
	c.pool.Put(feat)
	probs := nn.Softmax(logits)
	c.pool.Put(logits)
	verdicts := make([]wire.BatchVerdict, len(m.SampleIDs))
	for i, id := range m.SampleIDs {
		verdicts[i] = verdictRow(probs, i, id, wire.ExitCloud)
	}
	if err := send(&wire.ResultBatch{Session: m.Session, Verdicts: verdicts}); err != nil {
		c.logger.Debug("edge escalation reply failed", "session", m.Session, "err", err)
	}
}

// Drain gracefully shuts the cloud node down: it stops accepting new
// connections immediately, then waits for in-flight classifications to
// settle (their replies still go out on the open connections) before
// tearing the node down. Downstream gateways hold their connections open
// indefinitely, so Drain waits on the classification counter, not on
// connection EOFs. When the context expires first, the node is torn down
// anyway and the context error is returned.
func (c *Cloud) Drain(ctx context.Context) error {
	if c.listener != nil {
		c.listener.Close()
	}
	err := awaitIdle(ctx, &c.active)
	c.Close()
	return err
}

// Close stops the cloud node, terminating any in-flight connections.
func (c *Cloud) Close() error {
	c.closeOnce.Do(func() {
		if c.listener != nil {
			c.listener.Close()
		}
		c.connMu.Lock()
		c.closed = true
		for conn := range c.conns {
			conn.Close()
		}
		c.connMu.Unlock()
	})
	c.wg.Wait()
	return nil
}
