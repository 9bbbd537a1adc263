package transport

import (
	"context"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// LinkProfile describes a simulated network link.
type LinkProfile struct {
	// Latency is the one-way propagation delay added to every write.
	Latency time.Duration
	// BandwidthBps is the serialization rate in bytes per second; zero
	// means unlimited.
	BandwidthBps int64
}

// Common profiles for the hierarchy tiers. The numbers follow the typical
// edge-computing setting the paper motivates: devices reach the local
// gateway over a constrained wireless link, while the cloud sits behind a
// wide-area path with higher latency.
var (
	// DeviceToGateway models a low-power local wireless link.
	DeviceToGateway = LinkProfile{Latency: 2 * time.Millisecond, BandwidthBps: 250 << 10}
	// GatewayToCloud models a WAN path to a datacenter.
	GatewayToCloud = LinkProfile{Latency: 30 * time.Millisecond, BandwidthBps: 2 << 20}
	// GatewayToEdge models a nearby edge (fog) node.
	GatewayToEdge = LinkProfile{Latency: 5 * time.Millisecond, BandwidthBps: 1 << 20}
)

// SerializeTime returns the time the link is occupied putting n bytes on
// the wire at the configured bandwidth (zero when unlimited).
func (p LinkProfile) SerializeTime(n int) time.Duration {
	if p.BandwidthBps <= 0 {
		return 0
	}
	return time.Duration(int64(n) * int64(time.Second) / p.BandwidthBps)
}

// simConn imposes a link profile on writes with a virtual link clock. A
// Write never sleeps: it books the frame on the wire after every frame
// already booked (busyUntil = max(now, busyUntil) + SerializeTime(n)),
// stamps it deliverAt = busyUntil + Latency, queues a copy and returns.
// The delivery loop's wait for deliverAt is the only wait on the link, so
// back-to-back frames queue on the wire the way they would on a NIC, many
// frames can be in flight at once, and a burst pays the runtime's timer
// overshoot once rather than once per frame. Each Write is delivered as
// one Write on the inner connection, in order and byte for byte.
type simConn struct {
	net.Conn
	profile LinkProfile

	wmu       sync.Mutex // serializes senders (the link is one wire)
	busyUntil time.Time  // when the wire finishes the last booked frame; under wmu
	sendCh    chan delayedFrame

	// deadline is the write deadline in Unix nanoseconds, zero for none.
	// It bounds a Write's wait for queue space.
	deadline atomic.Int64

	done      chan struct{} // closed by Close
	closeOnce sync.Once
	exited    chan struct{} // closed when deliverLoop returns
	err       error         // why deliverLoop returned; set before exited is closed
}

type delayedFrame struct {
	data      *[]byte // from framePool; returned after delivery
	deliverAt time.Time
}

// framePool holds the per-frame copies between Write and delivery. The
// inner connections (net.Pipe, TCP) do not keep a buffer after their
// Write returns.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// Simulate wraps a connection so every write experiences the link's
// serialization time and propagation latency on a virtual link clock:
// the write returns at once and the peer reads the frame when the link
// would have delivered it. Only writes through the returned connection
// are delayed; reads, and the peer's writes back, are not.
func Simulate(c net.Conn, p LinkProfile) net.Conn {
	s := &simConn{
		Conn:    c,
		profile: p,
		// 256 frames in flight: more than 16 concurrent sessions' 7-frame
		// escalations, and a bound on how far writers run ahead of a
		// peer that has stopped reading.
		sendCh: make(chan delayedFrame, 256),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go s.deliverLoop()
	return s
}

func (c *simConn) deliverLoop() {
	defer close(c.exited)
	wait := time.NewTimer(time.Hour)
	wait.Stop()
	for {
		select {
		case f := <-c.sendCh:
			if d := time.Until(f.deliverAt); d > 0 {
				wait.Reset(d)
				select {
				case <-wait.C:
				case <-c.done: // closing: deliver it now
					wait.Stop()
				}
			}
			if !c.deliver(f) {
				return
			}
		case <-c.done:
			// Flush whatever is still in flight without further delay.
			for {
				select {
				case f := <-c.sendCh:
					if !c.deliver(f) {
						return
					}
				default:
					c.err = net.ErrClosed
					return
				}
			}
		}
	}
}

// deliver writes one frame to the inner connection and recycles its
// copy. It reports false, with the error recorded, when the write failed.
func (c *simConn) deliver(f delayedFrame) bool {
	_, c.err = c.Conn.Write(*f.data)
	framePool.Put(f.data)
	return c.err == nil
}

func (c *simConn) Write(b []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	select {
	case <-c.done:
		return 0, net.ErrClosed
	case <-c.exited:
		return 0, c.err
	default:
	}
	busyUntil := time.Now()
	if c.busyUntil.After(busyUntil) {
		busyUntil = c.busyUntil
	}
	busyUntil = busyUntil.Add(c.profile.SerializeTime(len(b)))
	data := framePool.Get().(*[]byte)
	*data = append((*data)[:0], b...)
	if err := c.enqueue(delayedFrame{data: data, deliverAt: busyUntil.Add(c.profile.Latency)}); err != nil {
		framePool.Put(data)
		return 0, err
	}
	c.busyUntil = busyUntil
	return len(b), nil
}

// enqueue hands a frame to the delivery loop. It waits only when the loop
// is a full queue behind (a peer that reads slowly or not at all), and
// that wait ends at the write deadline, at Close, or when the loop has
// stopped on a delivery error.
func (c *simConn) enqueue(f delayedFrame) error {
	select {
	case c.sendCh <- f:
		return nil
	default:
	}
	var expired <-chan time.Time
	if dl := c.deadline.Load(); dl != 0 {
		t := time.NewTimer(time.Until(time.Unix(0, dl)))
		defer t.Stop()
		expired = t.C
	}
	select {
	case c.sendCh <- f:
		return nil
	case <-expired:
		return os.ErrDeadlineExceeded
	case <-c.done:
		return net.ErrClosed
	case <-c.exited:
		return c.err
	}
}

// SetDeadline sets the read and write deadlines of the inner connection
// and bounds Write's wait for queue space.
func (c *simConn) SetDeadline(t time.Time) error {
	c.setDeadline(t)
	return c.Conn.SetDeadline(t)
}

// SetWriteDeadline sets the inner connection's write deadline, which also
// bounds the delivery loop's writes, and bounds Write's wait for queue
// space.
func (c *simConn) SetWriteDeadline(t time.Time) error {
	c.setDeadline(t)
	return c.Conn.SetWriteDeadline(t)
}

func (c *simConn) setDeadline(t time.Time) {
	var ns int64
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	c.deadline.Store(ns)
}

// Close delivers the frames still in flight without waiting out their
// latency, then closes the underlying connection.
func (c *simConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	<-c.exited
	return c.Conn.Close()
}

// RouteSim decorates a transport so each dialed connection experiences a
// per-address link profile — device uplinks and the WAN path to the cloud
// carry different latency/bandwidth within one cluster — through
// Simulate's virtual link clock. Listeners pass through unchanged: only
// the dialer's writes are delayed, so a listener's replies reach the
// dialer with no simulated latency or serialization.
type RouteSim struct {
	Inner Transport
	// Pick returns the link profile for an address.
	Pick func(addr string) LinkProfile
}

var _ Transport = RouteSim{}

// Listen delegates to the inner transport.
func (r RouteSim) Listen(addr string) (net.Listener, error) {
	return r.Inner.Listen(addr)
}

// Dial delegates to the inner transport and wraps the connection with the
// address's link simulation.
func (r RouteSim) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := r.Inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return Simulate(c, r.Pick(addr)), nil
}

// CountingConn wraps a connection and counts bytes read and written. It is
// safe for concurrent Read/Write as long as each direction has a single
// user, which is how the cluster nodes use connections.
type CountingConn struct {
	net.Conn
	read    atomic.Int64
	written atomic.Int64
}

// NewCountingConn wraps c with byte counters.
func NewCountingConn(c net.Conn) *CountingConn {
	return &CountingConn{Conn: c}
}

// Read implements net.Conn.
func (c *CountingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}

// Write implements net.Conn.
func (c *CountingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	return n, err
}

// BytesRead returns the total bytes read so far.
func (c *CountingConn) BytesRead() int64 { return c.read.Load() }

// BytesWritten returns the total bytes written so far.
func (c *CountingConn) BytesWritten() int64 { return c.written.Load() }
