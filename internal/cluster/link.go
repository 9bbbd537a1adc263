package cluster

import (
	"context"
	"errors"
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
//
// A write error fails the link at once: the peer may hold part of a
// frame, so nothing more can be written on the connection. The link's
// waiters are woken with the error, the connection closes, and its owner
// re-dials a broken link (the failure detector's tick for device links
// the gateway dialed and for replicas; a joined device re-joins).
type link struct {
	conn net.Conn
	dec  *wire.Decoder

	wmu sync.Mutex // serializes frame writes
	// watchdog fails the link when a bounded write overruns its deadline
	// (writeDue, in Unix nanoseconds; 0 while no bounded write is in
	// progress). It is armed around each bounded write instead of a
	// connection write deadline, so a write sets up no timer of its own.
	watchdog *time.Timer
	writeDue atomic.Int64

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
	err     error // terminal error, set before done is closed
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
// that replaced it. The frame belongs to whoever receives the reply,
// who releases it once done with its message.
type reply struct {
	tag int
	f   *wire.Frame
	err error
}

// msg returns the reply's message, or nil when it carries an error.
func (r reply) msg() wire.Message {
	if r.f == nil {
		return nil
	}
	return r.f.Msg
}

// releaseReplies releases every frame of an exchange's replies.
func releaseReplies(rs []reply) {
	for _, r := range rs {
		r.f.Release()
	}
}

// errWriteOverrun is the failure of a link whose bounded write did not
// finish by its deadline.
var errWriteOverrun = errors.New("cluster: write overran its deadline")

// newLink wraps conn and starts its reader.
func newLink(conn net.Conn, revive func(*link), goodbye func(*link, *wire.DeviceGoodbye)) *link {
	l := &link{
		conn:    conn,
		dec:     wire.NewDecoder(conn),
		revive:  revive,
		goodbye: goodbye,
		waiters: make(map[uint64]waiter),
		done:    make(chan struct{}),
	}
	l.watchdog = time.AfterFunc(time.Hour, l.overrun)
	l.watchdog.Stop()
	go l.readLoop()
	return l
}

func (l *link) readLoop() {
	for {
		f, err := l.dec.Next()
		if err != nil {
			l.fail(err)
			return
		}
		l.seen.Store(true)
		if l.armed.Load() && l.armed.CompareAndSwap(true, false) {
			l.revive(l)
		}
		s, ok := f.Msg.(wire.Sessioned)
		if !ok { // connection-scoped frame: a heartbeat echo or a goodbye
			if bye, ok := f.Msg.(*wire.DeviceGoodbye); ok && l.goodbye != nil {
				l.goodbye(l, bye)
			}
			f.Release()
			continue
		}
		l.mu.Lock()
		w, ok := l.waiters[s.SessionID()]
		delete(l.waiters, s.SessionID())
		l.mu.Unlock()
		if ok { // ch has room: it holds one reply per waiter
			w.ch <- reply{tag: w.tag, f: f}
		} else {
			f.Release()
		}
	}
}

// broken reports whether the link has failed and can no longer deliver
// replies; its owner re-dials broken links.
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

// abort fails the link with err and closes its connection, which also
// ends a write blocked on it.
func (l *link) abort(err error) {
	l.fail(err)
	l.conn.Close()
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

// unsubscribe removes the session's waiter and reports whether it was
// still registered; false means a reply for it is on its way (the reader
// or fail took it).
func (l *link) unsubscribe(session uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.waiters[session]; !ok {
		return false
	}
	delete(l.waiters, session)
	return true
}

// send writes frames atomically with respect to other sessions. A
// non-zero deadline bounds the writes, so a stalled peer cannot wedge the
// link's writer; a zero one leaves them unbounded. Any write error fails
// the link (abort).
func (l *link) send(deadline time.Time, msgs ...wire.Message) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.write(deadline, msgs...)
}

// write is send for a caller that holds wmu.
func (l *link) write(deadline time.Time, msgs ...wire.Message) error {
	if !deadline.IsZero() {
		l.writeDue.Store(deadline.UnixNano())
		l.watchdog.Reset(time.Until(deadline))
		defer func() {
			l.watchdog.Stop()
			l.writeDue.Store(0)
		}()
	}
	for _, m := range msgs {
		if _, err := wire.Encode(l.conn, m); err != nil {
			l.abort(err)
			return err
		}
	}
	return nil
}

// overrun is the watchdog's callback: a bounded write still in progress
// past its deadline fails the link, and closing the connection returns
// the write. A callback that fires late — its write done, or a later
// write's deadline not yet passed — changes nothing.
func (l *link) overrun() {
	if due := l.writeDue.Load(); due != 0 && time.Now().UnixNano() >= due {
		l.abort(errWriteOverrun)
	}
}

// stage is the reusable state of one session's round trips: one reply
// channel, one stage timer and the reply slice, kept across the
// session's exchanges and recycled between sessions.
type stage struct {
	ch    chan reply
	timer *time.Timer
	out   []reply
	// one and oneFrames carry a single-link exchange (ReplicaPool.relay).
	one       [1]*link
	oneFrames [1][]wire.Message
}

// exchange is one round trip of a session stage: it subscribes every link
// that has frames to the stage's reply channel, writes the frames from the
// calling goroutine, and collects the first reply per link until all have
// answered, the stage deadline passes, or ctx ends. Writes and wait share
// the deadline; a timeout <= 0 leaves the stage to ctx alone (a zero
// config is "no per-stage timeout", not "always time out"). Each link gets
// one entry: its frame, or the error that replaced it (failed write, link
// failure, deadline); a nil link or one without frames, a zero entry.
// Only a done context is returned as the error.
//
// The entries alias the stage until its next exchange, and their frames
// are the caller's to release. A reply that is already on its way when
// the wait ends is received and released here, so the channel is empty
// for the next exchange.
func (st *stage) exchange(ctx context.Context, session uint64, links []*link, timeout time.Duration, frames [][]wire.Message) ([]reply, error) {
	if cap(st.ch) < len(links) {
		st.ch = make(chan reply, len(links))
	}
	out := resize(st.out, len(links))
	clear(out)
	st.out = out
	var deadline time.Time
	var expire <-chan time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		if st.timer == nil {
			st.timer = time.NewTimer(timeout)
		} else {
			st.timer.Reset(timeout)
		}
		defer func() {
			if !st.timer.Stop() {
				select { // a fire this exchange did not receive
				case <-st.timer.C:
				default:
				}
			}
		}()
		expire = st.timer.C
	}
	pending := 0
	for i, l := range links {
		if l == nil || len(frames[i]) == 0 {
			continue
		}
		if out[i].err = l.subscribe(session, waiter{tag: i, ch: st.ch}); out[i].err == nil {
			// A failed write fails the link, which answers the waiter.
			_ = l.send(deadline, frames[i]...)
			pending++
		}
	}
	var missed error
wait:
	for pending > 0 {
		select {
		case r := <-st.ch:
			out[r.tag] = r
			pending--
		case <-expire:
			missed = fmt.Errorf("cluster: %w after %v", ErrDeadlineExceeded, timeout)
			break wait
		case <-ctx.Done():
			break wait
		}
	}
	err := ctx.Err()
	if err != nil {
		err = ctxErr(err)
		missed = err
	}
	late := 0
	for i, l := range links {
		if l != nil && len(frames[i]) > 0 && out[i].f == nil && out[i].err == nil {
			if !l.unsubscribe(session) {
				late++
			}
			out[i].err = missed
		}
	}
	for ; late > 0; late-- {
		(<-st.ch).f.Release()
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
// A heartbeat write that fails or overruns fails the link like any
// write, and the next tick's owner re-dials it.
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
			_ = l.send(time.Now().Add(interval), hb) // a failed write fails the link
		}()
	}
}

// close fails the link, waking its waiters, and closes the connection.
func (l *link) close() { l.abort(net.ErrClosed) }
