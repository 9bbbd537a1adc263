package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/wire"
)

// link multiplexes one connection across concurrent inference sessions.
// Frame writes are serialized by a mutex; a single reader goroutine decodes
// frames and hands each to the waiter subscribed for its session tag.
// Frames for sessions with no waiter — replies that arrive after their
// session timed out — are dropped, which replaces the old lock-step
// protocol's "discard stale sample IDs" loop.
type link struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes

	// Failure-detector state (see beat): readLoop sets seen on every
	// frame, and the first frame on an armed link calls revive, which
	// re-admits the link's device or replica.
	seen    atomic.Bool
	silent  int // consecutive silent intervals; owned by beat
	armed   atomic.Bool
	revive  func(*link)
	goodbye func(*link, *wire.DeviceGoodbye) // a device link's; else nil

	mu      sync.Mutex
	waiters map[uint64]chan wire.Message
	err     error // terminal read error, set before done is closed

	done      chan struct{}
	closeOnce sync.Once
}

// newLink wraps conn and starts its reader.
func newLink(conn net.Conn, revive func(*link), goodbye func(*link, *wire.DeviceGoodbye)) *link {
	l := &link{
		conn:    conn,
		revive:  revive,
		goodbye: goodbye,
		waiters: make(map[uint64]chan wire.Message),
		done:    make(chan struct{}),
	}
	go l.readLoop()
	return l
}

func (l *link) readLoop() {
	for {
		msg, err := wire.Decode(l.conn)
		if err != nil {
			l.fail(err)
			return
		}
		l.seen.Store(true)
		if l.armed.Load() && l.armed.CompareAndSwap(true, false) {
			l.revive(l)
		}
		s, ok := msg.(wire.Sessioned)
		if !ok { // connection-scoped frame: a heartbeat echo or a goodbye
			if bye, ok := msg.(*wire.DeviceGoodbye); ok && l.goodbye != nil {
				l.goodbye(l, bye)
			}
			continue
		}
		l.mu.Lock()
		ch := l.waiters[s.SessionID()]
		l.mu.Unlock()
		if ch != nil {
			select {
			case ch <- msg:
			default: // waiter already satisfied; drop
			}
		}
	}
}

// broken reports whether the link has hit its terminal read error and can
// no longer deliver replies; replica pools re-dial broken links lazily.
func (l *link) broken() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err != nil
}

// fail records the terminal error and wakes every pending waiter.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	l.closeOnce.Do(func() { close(l.done) })
}

// subscribe registers a waiter for the session's frames. The returned
// channel holds one frame; unsubscribe must be called when the session is
// done with this link.
func (l *link) subscribe(session uint64) (<-chan wire.Message, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	ch := make(chan wire.Message, 1)
	l.waiters[session] = ch
	return ch, nil
}

func (l *link) unsubscribe(session uint64) {
	l.mu.Lock()
	delete(l.waiters, session)
	l.mu.Unlock()
}

// send writes frames atomically with respect to other sessions. A
// positive timeout bounds the whole batch via a write deadline, so a
// stalled peer cannot wedge the link's writer; a zero or negative timeout
// leaves the write unbounded (context-only callers).
func (l *link) send(timeout time.Duration, msgs ...wire.Message) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if timeout > 0 {
		_ = l.conn.SetWriteDeadline(time.Now().Add(timeout))
		defer l.conn.SetWriteDeadline(time.Time{})
	}
	for _, m := range msgs {
		if _, err := wire.Encode(l.conn, m); err != nil {
			return err
		}
	}
	return nil
}

// wait blocks until the session's next frame, the timeout, the context, or
// link failure. A positive timeout bounds this stage even when ctx has no
// deadline; ctx cancellation and earlier ctx deadlines still win. A zero
// or negative timeout means the stage is bounded by the context alone —
// it must never make the wait expire instantly (a zero-value config is
// "no per-stage timeout", not "always time out").
func (l *link) wait(ctx context.Context, ch <-chan wire.Message, timeout time.Duration) (wire.Message, error) {
	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case msg := <-ch:
		return msg, nil
	case <-timerC:
		return nil, fmt.Errorf("cluster: %w after %v", ErrDeadlineExceeded, timeout)
	case <-ctx.Done():
		return nil, ctxErr(ctx.Err())
	case <-l.done:
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		return nil, fmt.Errorf("cluster: link failed: %w", err)
	}
}

const (
	// heartbeatMisses is how many heartbeat intervals a link may read
	// nothing before the failure detector marks it down.
	heartbeatMisses = 2
	// defaultHeartbeatInterval paces the failure detector when
	// GatewayConfig.HeartbeatInterval is zero, and always on an edge's
	// cloud pool.
	defaultHeartbeatInterval = time.Second
)

// detector is the failure-detector loop the gateway and the edge share,
// and the one place device and replica health is decided: every interval
// tick beats the node's links (link.beat) with one heartbeat frame, and
// the tick ends once its heartbeats are written.
type detector struct {
	stop context.CancelFunc
	done chan struct{}
}

// startDetector runs tick every interval until close. nodeID names the
// node in its heartbeats.
func startDetector(nodeID string, interval time.Duration, tick func(ctx context.Context, hb *wire.Heartbeat, interval time.Duration, sends *sync.WaitGroup)) *detector {
	ctx, stop := context.WithCancel(context.Background())
	d := &detector{stop: stop, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		hb := &wire.Heartbeat{NodeID: nodeID}
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			hb.Seq++
			var sends sync.WaitGroup
			tick(ctx, hb, interval, &sends)
			sends.Wait()
		}
	}()
	return d
}

// close stops the loop and returns once it has; a nil detector (a node
// that never started one) is a no-op.
func (d *detector) close() {
	if d == nil {
		return
	}
	d.stop()
	<-d.done
}

// beat runs one failure-detector tick on the link. mark records whether
// the link has read nothing for heartbeatMisses intervals and reports
// whether its device or replica is down; a down link is armed before the
// heartbeat goes out, so the echo re-admits it. Only a link idle for the
// interval gets a heartbeat, written on its own goroutine (counted in
// sends) under a deadline of one interval, so a peer that stopped reading
// holds neither this link's writer nor the other links' heartbeats.
func (l *link) beat(hb *wire.Heartbeat, interval time.Duration, sends *sync.WaitGroup, mark func(dead bool) (down bool)) {
	idle := !l.seen.Swap(false)
	if idle {
		l.silent++
	} else {
		l.silent = 0
	}
	if mark(l.silent >= heartbeatMisses) {
		l.armed.Store(true)
	}
	if idle {
		sends.Add(1)
		go func() {
			defer sends.Done()
			_ = l.send(interval, hb) // a failed write shows up as silence
		}()
	}
}

// request sends one frame and waits for the session's reply.
func (l *link) request(ctx context.Context, session uint64, req wire.Message, timeout time.Duration) (wire.Message, error) {
	ch, err := l.subscribe(session)
	if err != nil {
		return nil, fmt.Errorf("cluster: link failed: %w", err)
	}
	defer l.unsubscribe(session)
	if err := l.send(timeout, req); err != nil {
		return nil, err
	}
	return l.wait(ctx, ch, timeout)
}

func (l *link) close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		if l.err == nil {
			l.err = net.ErrClosed
		}
		l.mu.Unlock()
		close(l.done)
	})
	return l.conn.Close()
}
