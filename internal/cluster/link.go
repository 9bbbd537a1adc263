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
// session timed out — are dropped.
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
	waiters map[uint64]waiter
	err     error // terminal read error, set before done is closed
	done    chan struct{}
}

// waiter is one session's subscription on a link. It takes one frame:
// the session's next frame, or the link's failure, goes to ch as a reply
// marked tag, and the waiter is removed.
type waiter struct {
	tag int
	ch  chan<- reply
}

// reply is one link's answer in an exchange: its frame, or the error
// that replaced it.
type reply struct {
	tag int
	msg wire.Message
	err error
}

// newLink wraps conn and starts its reader.
func newLink(conn net.Conn, revive func(*link), goodbye func(*link, *wire.DeviceGoodbye)) *link {
	l := &link{
		conn:    conn,
		revive:  revive,
		goodbye: goodbye,
		waiters: make(map[uint64]waiter),
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
		w, ok := l.waiters[s.SessionID()]
		delete(l.waiters, s.SessionID())
		l.mu.Unlock()
		if ok { // ch has room: it holds one reply per waiter
			w.ch <- reply{tag: w.tag, msg: msg}
		}
	}
}

// broken reports whether the link has hit its terminal read error and can
// no longer deliver replies; its owner re-dials broken links.
func (l *link) broken() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err != nil
}

// fail records the terminal error, once, and hands it to every pending
// waiter, so no session waits out its deadline on a dead link.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return
	}
	l.err = err
	waiters := l.waiters
	l.waiters = nil // subscribe refuses from now on
	l.mu.Unlock()
	err = fmt.Errorf("cluster: link failed: %w", err)
	for _, w := range waiters {
		w.ch <- reply{tag: w.tag, err: err}
	}
	close(l.done)
}

// subscribe registers w for the session's next frame.
func (l *link) subscribe(session uint64, w waiter) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return fmt.Errorf("cluster: link failed: %w", l.err)
	}
	l.waiters[session] = w
	return nil
}

// send writes frames atomically with respect to other sessions. A
// non-zero deadline bounds the writes, so a stalled peer cannot wedge the
// link's writer; a zero one leaves them unbounded.
func (l *link) send(deadline time.Time, msgs ...wire.Message) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if !deadline.IsZero() {
		_ = l.conn.SetWriteDeadline(deadline)
		defer l.conn.SetWriteDeadline(time.Time{})
	}
	for _, m := range msgs {
		if _, err := wire.Encode(l.conn, m); err != nil {
			return err
		}
	}
	return nil
}

// exchange is one round trip of a session stage: it subscribes every link
// that has frames to one reply channel, writes the frames from the calling
// goroutine, and collects the first reply per link until all have
// answered, the stage deadline passes, or ctx ends. Writes and wait share
// the deadline; a timeout <= 0 leaves the stage to ctx alone (a zero
// config is "no per-stage timeout", not "always time out"). Each link gets
// one entry: its frame, or the error that replaced it (failed write, link
// failure, deadline); a nil link or one without frames, a zero entry.
// Only a done context is returned as the error.
func exchange(ctx context.Context, session uint64, links []*link, timeout time.Duration, frames [][]wire.Message) ([]reply, error) {
	out := make([]reply, len(links))
	ch := make(chan reply, len(links))
	var deadline time.Time
	var expire <-chan time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expire = timer.C
	}
	pending := 0
	for i, l := range links {
		if l == nil || len(frames[i]) == 0 {
			continue
		}
		if out[i].err = l.subscribe(session, waiter{tag: i, ch: ch}); out[i].err == nil {
			if out[i].err = l.send(deadline, frames[i]...); out[i].err == nil {
				pending++
			}
		}
	}
	var missed error
	for pending > 0 {
		select {
		case r := <-ch:
			if out[r.tag].err == nil { // else its write failed first
				out[r.tag] = r
				pending--
			}
		case <-expire:
			missed, pending = fmt.Errorf("cluster: %w after %v", ErrDeadlineExceeded, timeout), 0
		case <-ctx.Done():
			pending = 0
		}
	}
	err := ctx.Err()
	if err != nil {
		err = ctxErr(err)
		missed = err
	}
	for i, l := range links {
		if l != nil && len(frames[i]) > 0 {
			l.mu.Lock()
			delete(l.waiters, session) // already gone if it delivered
			l.mu.Unlock()
			if out[i].msg == nil && out[i].err == nil {
				out[i].err = missed
			}
		}
	}
	return out, err
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
			_ = l.send(time.Now().Add(interval), hb) // a failed write shows up as silence
		}()
	}
}

// close fails the link, waking its waiters, and closes the connection.
func (l *link) close() error {
	l.fail(net.ErrClosed)
	return l.conn.Close()
}
