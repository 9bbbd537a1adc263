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
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// server is the node lifecycle every tier shares: one listener, the set
// of live connections (accepted, or dialed by a joined device), the
// accept loop and Close, plus — for Device, Edge and Cloud, which embed
// it — the frame loop, simulated failure, the model registry and tensor
// pool, and the in-flight work counter Drain waits on. The gateway's
// registration plane uses only the connection half (listen, Close).
type server struct {
	// name labels the node in logs and errors ("device-3", "edge").
	name   string
	logger *slog.Logger
	// reg resolves the model version each session pinned: the node's
	// own registry, or — in an in-process engine — the engine's, which
	// it shares with every other node.
	reg *modelRegistry
	// pool recycles the node's forward tensors (feature maps, exit
	// vectors, conv scratch) across sessions, keeping the steady-state
	// handlers free of per-sample heap allocation.
	pool *tensor.Pool
	// frame is the tier's half of the frame loop: its switch over the
	// message types it serves. It owns the frame: it releases it, or
	// hands it to a worker with nodeConn.spawn.
	frame func(c *nodeConn, f *wire.Frame)
	// run is the tier's worker half: it serves one request frame that
	// frame spawned, with the worker's reply scratch, and releases it.
	run func(c *nodeConn, f *wire.Frame, sc *scratch)
	// onClose runs once, after the listener and connections close and
	// before Close waits for their handlers.
	onClose func()

	failed atomic.Bool
	// active counts in-flight work spawned by the frame loop, and a
	// joined device's link; Drain polls it to zero before tearing down.
	active atomic.Int64

	mu        sync.Mutex // guards listener, conns and closed
	listener  net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup // the accept loop and every connection handler
	closeOnce sync.Once
}

// init sets up a tier node serving model's sections under modelVersion.
func (s *server) init(name string, model *core.Model, modelVersion uint64, logger *slog.Logger, frame func(*nodeConn, *wire.Frame), run func(*nodeConn, *wire.Frame, *scratch)) {
	if logger == nil {
		logger = slog.Default()
	}
	s.name = name
	s.logger = logger.With("node", name)
	s.reg = newModelRegistry(model, modelVersion)
	s.pool = tensor.NewPool()
	s.frame = frame
	s.run = run
}

// Serve starts accepting connections on the transport address. It
// returns once the listener is active.
func (s *server) Serve(tr transport.Transport, addr string) error {
	return s.listen(tr, addr, func(conn net.Conn) { s.serveFrames(&nodeConn{conn: conn, srv: s}) })
}

// listen opens the listener and starts the accept loop, which runs
// handle on every accepted connection and closes the connection when
// handle returns.
func (s *server) listen(tr transport.Transport, addr string, handle func(net.Conn)) error {
	l, err := tr.Listen(addr)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", s.name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		l.Close()
		return ErrClosed
	}
	if s.listener != nil {
		l.Close()
		return fmt.Errorf("cluster: %s already serving", s.name)
	}
	s.listener = l
	s.wg.Add(1)
	go s.accept(l, handle)
	return nil
}

func (s *server) accept(l net.Listener, handle func(net.Conn)) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.serve(conn, handle)
	}
}

// serve runs handle on conn on its own goroutine, tracked like every
// connection of the node: Close closes conn and waits for handle, and
// conn closes when handle returns. Once Close has begun it closes conn
// instead and reports false.
func (s *server) serve(conn net.Conn, handle func(net.Conn)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		handle(conn)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	return true
}

// Addr returns the listener's address; it is only valid after Serve.
func (s *server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// SetFailed toggles simulated failure: a failed node goes silent — it
// neither computes nor replies, heartbeats included — which its peers
// observe as timeouts (§IV-G). Downstream replica pools then fence it
// and fail sessions over to the remaining replicas.
func (s *server) SetFailed(failed bool) { s.failed.Store(failed) }

// Failed reports the simulated-failure state.
func (s *server) Failed() bool { return s.failed.Load() }

// isClosed reports whether Close has begun.
func (s *server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Drain gracefully shuts the node down: it stops accepting connections
// immediately, then waits for in-flight work to settle — replies still go
// out on the open connections — before closing the node. Peers hold
// their connections open indefinitely, so Drain waits on the work
// counter, not on connection EOFs. When the context expires first, the
// node is closed anyway and the typed context error (ErrCanceled or
// ErrDeadlineExceeded) is returned.
func (s *server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.listener != nil {
		s.listener.Close()
	}
	s.mu.Unlock()
	err := awaitIdle(ctx, &s.active)
	s.Close()
	return err
}

// Close stops the node, terminating any in-flight connections, and
// returns once their handlers have finished.
func (s *server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		if s.listener != nil {
			s.listener.Close()
		}
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		if s.onClose != nil {
			s.onClose()
		}
	})
	s.wg.Wait()
	return nil
}

// nodeConn is one connection of a tier node. Every reply goes through send
// under one write lock, whichever goroutine produced it, and work spawned
// for the connection's frames is counted both here (the frame loop waits
// for it before the connection closes) and on the node (Drain waits for
// it).
type nodeConn struct {
	conn net.Conn
	srv  *server
	wmu  sync.Mutex
	work sync.WaitGroup
	// tasks hands spawned request frames to the connection's idle
	// workers.
	tasks chan *wire.Frame
}

// scratch is one worker's reply storage. A worker sends each reply
// before it takes its next task, so every task it runs reuses the same
// frames and buffers.
type scratch struct {
	summary  wire.SummaryBatch
	features wire.FeatureBatch
	results  wire.ResultBatch
	edge     wire.EdgeFeatureBatch
	probs    []float32
	ids      []uint64
	hard     []int
	// feats is a classify header's device blocks, one entry per device.
	feats [][]byte
	// stage carries the edge's escalations to the cloud pool.
	stage stage
}

// send writes one frame to the peer.
func (c *nodeConn) send(m wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := wire.Encode(c.conn, m)
	return err
}

// spawn runs f on one of the connection's workers: an idle one when
// there is one, else a new one, which then stays for later frames until
// the frame loop ends. Frames run as concurrently as with a goroutine
// each, while a steady stream reuses the workers and their scratch.
func (c *nodeConn) spawn(f *wire.Frame) {
	c.work.Add(1)
	c.srv.active.Add(1)
	select {
	case c.tasks <- f:
	default:
		go c.worker(f)
	}
}

// worker runs frames until the frame loop closes tasks.
func (c *nodeConn) worker(f *wire.Frame) {
	sc := new(scratch)
	for ok := true; ok; f, ok = <-c.tasks {
		c.srv.run(c, f, sc)
		c.srv.active.Add(-1)
		c.work.Done()
	}
}

// serveFrames is the frame loop of every tier connection. It decodes
// frames until the peer hangs up or the node closes; while the node is
// failed it drops them unanswered (a crashed node goes silent, and its
// peers' timeouts handle the rest); it echoes heartbeats so failure
// detectors can tell a live node from a crashed one; and it hands every
// other frame to the tier's frame handler on this goroutine, so one
// connection carries any number of interleaved sessions. It returns once
// the connection's spawned work has finished.
func (s *server) serveFrames(c *nodeConn) {
	c.tasks = make(chan *wire.Frame)
	defer func() {
		c.work.Wait()
		close(c.tasks) // idle workers exit
	}()
	dec := wire.NewDecoder(c.conn)
	for {
		f, err := dec.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logger.Debug("decode error", "err", err)
			}
			return
		}
		if s.failed.Load() {
			f.Release()
			continue
		}
		if hb, ok := f.Msg.(*wire.Heartbeat); ok {
			err := c.send(hb)
			f.Release()
			if err != nil {
				return
			}
			continue
		}
		s.frame(c, f)
	}
}

// drainPollInterval is how often awaitIdle re-checks a node's in-flight
// counter while draining.
const drainPollInterval = 5 * time.Millisecond

// awaitIdle waits until the in-flight counter reaches zero or the
// context expires, returning the typed context error in the latter case.
// The counter is polled rather than signalled because drains are rare,
// human-scale events; a few-millisecond poll keeps the hot classify path
// free of drain bookkeeping.
func awaitIdle(ctx context.Context, active *atomic.Int64) error {
	if active.Load() == 0 {
		return nil
	}
	ticker := time.NewTicker(drainPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if active.Load() == 0 {
				return nil
			}
		case <-ctx.Done():
			return ctxErr(ctx.Err())
		}
	}
}
