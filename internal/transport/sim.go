package transport

import (
	"context"
	"net"
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

// simConn imposes a link profile on writes. The sender is blocked only for
// the serialization time — the period the link is actually occupied —
// while the propagation latency is applied by an order-preserving delivery
// queue, so multiple frames can be "in flight" at once exactly as on a
// real link. This is what lets concurrent sessions sharing one connection
// overlap propagation delays instead of serializing on them.
type simConn struct {
	net.Conn
	profile LinkProfile

	wmu    sync.Mutex // serializes senders (the link is one wire)
	sendCh chan delayedFrame

	errMu sync.Mutex
	err   error

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

type delayedFrame struct {
	data      []byte
	deliverAt time.Time
}

// Simulate wraps a connection so every write experiences the link's
// serialization delay (sender-side, where a constrained uplink throttles a
// real device) and its propagation latency (in-flight, overlapping later
// writes).
func Simulate(c net.Conn, p LinkProfile) net.Conn {
	s := &simConn{
		Conn:    c,
		profile: p,
		sendCh:  make(chan delayedFrame, 256),
		done:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.deliverLoop()
	return s
}

func (c *simConn) deliverLoop() {
	defer c.wg.Done()
	for {
		select {
		case f := <-c.sendCh:
			if d := time.Until(f.deliverAt); d > 0 {
				time.Sleep(d)
			}
			if _, err := c.Conn.Write(f.data); err != nil {
				c.setErr(err)
				return
			}
		case <-c.done:
			// Flush whatever is still in flight without further delay.
			for {
				select {
				case f := <-c.sendCh:
					if _, err := c.Conn.Write(f.data); err != nil {
						c.setErr(err)
						return
					}
				default:
					return
				}
			}
		}
	}
}

func (c *simConn) setErr(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

func (c *simConn) getErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

func (c *simConn) Write(b []byte) (int, error) {
	if err := c.getErr(); err != nil {
		return 0, err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if d := c.profile.SerializeTime(len(b)); d > 0 {
		time.Sleep(d)
	}
	frame := delayedFrame{
		data:      append([]byte(nil), b...),
		deliverAt: time.Now().Add(c.profile.Latency),
	}
	select {
	case c.sendCh <- frame:
		return len(b), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

// Close flushes in-flight frames and closes the underlying connection.
func (c *simConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
	return c.Conn.Close()
}

// SimTransport decorates a transport so every dialed connection
// experiences a link profile. Listeners are passed through unchanged; the
// delay is applied on the dialer's writes (its uplink).
type SimTransport struct {
	Inner   Transport
	Profile LinkProfile
}

var _ Transport = SimTransport{}

// Listen delegates to the inner transport.
func (s SimTransport) Listen(addr string) (net.Listener, error) {
	return s.Inner.Listen(addr)
}

// Dial delegates to the inner transport and wraps the connection with the
// link simulation.
func (s SimTransport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := s.Inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return Simulate(c, s.Profile), nil
}

// RouteSim decorates a transport so each dialed connection experiences a
// per-address link profile — device uplinks and the WAN path to the cloud
// carry different latency/bandwidth within one cluster. Listeners pass
// through unchanged; the delay applies to the dialer's writes.
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
