package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// hop names one kind of node-to-node link of the hierarchy.
type hop int

const (
	hopDev hop = iota // gateway <-> device
	hopUp             // gateway <-> edge (three-tier) or cloud (two-tier)
	hopEC             // edge <-> cloud
	numHops
)

func (h hop) String() string { return [...]string{"dev", "up", "ec"}[h] }

// Directions of a link, named from the dialer's side.
const (
	dirRequest = 0 // dialer -> listener
	dirReply   = 1 // listener -> dialer
)

// recorder is the benchmark's transport wrapper. It always counts the
// bytes and frames written on every link (the wire_bytes_per_class
// metric); when tracing it also timestamps every frame at both ends of
// every link. It sits outside the link simulator on the dialing side, so
// a request's write time is taken before the simulated serialization and
// propagation delays and its arrival time after them.
//
// The cluster writes each frame with exactly one Write (wire.Encode), so
// a written buffer is one frame; reads are chunked and are reassembled
// from the frame header's length field.
type recorder struct {
	inner   transport.Transport
	useEdge bool
	base    time.Time
	// trace switches frame timestamping; it is flipped only while no
	// frame is in flight, so a read never starts mid-frame.
	trace atomic.Bool

	bytes  [numHops][2]atomic.Int64
	frames atomic.Int64

	mu      sync.Mutex
	dialed  map[string]int // address -> dials so far, pairs link ends
	accepts map[string]int
	conns   []*recConn
}

func newRecorder(inner transport.Transport, useEdge bool) *recorder {
	return &recorder{
		inner:   inner,
		useEdge: useEdge,
		base:    time.Now(),
		dialed:  make(map[string]int),
		accepts: make(map[string]int),
	}
}

// now is the recorder's clock: nanoseconds since it was built. One
// process, one monotonic clock, so times from both ends of a link
// compare directly.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// hopOf classifies a listener address. NewEngine names its nodes
// "device-N", "edge-N" and "cloud-N"; with an edge tier only the edge
// dials the cloud.
func (r *recorder) hopOf(addr string) hop {
	switch {
	case strings.HasPrefix(addr, "device"):
		return hopDev
	case strings.HasPrefix(addr, "cloud") && r.useEdge:
		return hopEC
	default:
		return hopUp
	}
}

func (r *recorder) Listen(addr string) (net.Listener, error) {
	l, err := r.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &recListener{Listener: l, rec: r, addr: addr}, nil
}

func (r *recorder) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := r.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return r.wrap(c, addr, true), nil
}

// wrap registers one end of a link. The k-th dial of an address and the
// k-th accept on it are the two ends of one pipe: an in-memory listener
// hands connections over in dial order.
func (r *recorder) wrap(c net.Conn, addr string, dialer bool) net.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.accepts
	if dialer {
		seq = r.dialed
	}
	rc := &recConn{
		Conn:   c,
		rec:    r,
		hop:    r.hopOf(addr),
		dialer: dialer,
		link:   fmt.Sprintf("%s#%d", addr, seq[addr]),
	}
	seq[addr]++
	r.conns = append(r.conns, rc)
	return rc
}

type recListener struct {
	net.Listener
	rec  *recorder
	addr string
}

func (l *recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.rec.wrap(c, l.addr, false), nil
}

// frameEvent is one frame seen at one end of a link.
type frameEvent struct {
	at        int64 // recorder clock: write start, or read completion
	typ       wire.MsgType
	session   uint64
	sessioned bool
}

// recConn is one end of a recorded link.
type recConn struct {
	net.Conn
	rec    *recorder
	hop    hop
	dialer bool
	link   string

	wmu    sync.Mutex
	writes []frameEvent
	rmu    sync.Mutex
	reads  []frameEvent
	rbuf   []byte
}

// frameHeaderBytes and the length field's position follow the frame
// layout documented in package wire: magic u16, version u8, type u8,
// payload length u32.
const frameHeaderBytes = 8

func (c *recConn) dir() int {
	if c.dialer {
		return dirRequest
	}
	return dirReply
}

func (c *recConn) Write(b []byte) (int, error) {
	c.rec.bytes[c.hop][c.dir()].Add(int64(len(b)))
	c.rec.frames.Add(1)
	if c.rec.trace.Load() {
		at := c.rec.now()
		if ev, ok := decodeFrame(b, at); ok {
			c.wmu.Lock()
			c.writes = append(c.writes, ev)
			c.wmu.Unlock()
		}
	}
	return c.Conn.Write(b)
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.rec.trace.Load() {
		at := c.rec.now()
		c.rmu.Lock()
		c.rbuf = append(c.rbuf, p[:n]...)
		for len(c.rbuf) >= frameHeaderBytes {
			total := frameHeaderBytes + int(binary.LittleEndian.Uint32(c.rbuf[4:8]))
			if len(c.rbuf) < total {
				break
			}
			if ev, ok := decodeFrame(c.rbuf[:total], at); ok {
				c.reads = append(c.reads, ev)
			}
			c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[total:])]
		}
		c.rmu.Unlock()
	}
	return n, err
}

// decodeFrame reads one whole frame with the wire package's own decoder
// and keeps what the trace needs: type and session tag.
func decodeFrame(frame []byte, at int64) (frameEvent, bool) {
	msg, err := wire.Decode(bytes.NewReader(frame))
	if err != nil {
		return frameEvent{}, false
	}
	ev := frameEvent{at: at, typ: msg.MsgType()}
	if s, ok := msg.(wire.Sessioned); ok {
		ev.session, ev.sessioned = s.SessionID(), true
	}
	return ev, true
}

// wireCounters is a snapshot of the always-on byte and frame counters.
type wireCounters struct {
	bytes  [numHops][2]int64
	frames int64
}

func (r *recorder) counters() wireCounters {
	var w wireCounters
	for h := range r.bytes {
		for d := range r.bytes[h] {
			w.bytes[h][d] = r.bytes[h][d].Load()
		}
	}
	w.frames = r.frames.Load()
	return w
}

func (w wireCounters) sub(o wireCounters) wireCounters {
	for h := range w.bytes {
		for d := range w.bytes[h] {
			w.bytes[h][d] -= o.bytes[h][d]
		}
	}
	w.frames -= o.frames
	return w
}

func (w wireCounters) total() int64 {
	var t int64
	for h := range w.bytes {
		t += w.bytes[h][0] + w.bytes[h][1]
	}
	return t
}

// exchange is one request/reply round trip of one session on one link:
// one or more request frames from the dialer, then one reply frame.
type exchange struct {
	hop     hop
	link    string
	session uint64
	index   int // position among the session's exchanges on this link

	reqType, repType wire.MsgType
	reqStart         int64 // first request frame written (dialer side)
	reqArrive        int64 // last request frame read (listener side)
	repWrite         int64 // reply frame written (listener side)
	repArrive        int64 // reply frame read (dialer side)
}

func (e exchange) rtt() time.Duration { return time.Duration(e.repArrive - e.reqStart) }

// linkTime is the time the exchange spent crossing the link, both
// directions summed.
func (e exchange) linkTime() time.Duration {
	return time.Duration((e.reqArrive - e.reqStart) + (e.repArrive - e.repWrite))
}

// service is the listening node's time between the request's arrival
// and the start of its reply.
func (e exchange) service() time.Duration { return time.Duration(e.repWrite - e.reqArrive) }

// exchanges pairs the four event streams of every link into round
// trips. Frames of one session on one link arrive in the order they
// were written, so the i-th request written is the i-th request read.
// Sessions whose streams disagree in length (cut by the start or end of
// recording) are dropped.
func (r *recorder) exchanges() []exchange {
	r.mu.Lock()
	conns := append([]*recConn(nil), r.conns...)
	r.mu.Unlock()
	type ends struct{ dial, listen *recConn }
	links := make(map[string]*ends)
	for _, c := range conns {
		e := links[c.link]
		if e == nil {
			e = &ends{}
			links[c.link] = e
		}
		if c.dialer {
			e.dial = c
		} else {
			e.listen = c
		}
	}
	var out []exchange
	for name, e := range links {
		if e.dial == nil || e.listen == nil {
			continue
		}
		reqW := bySession(&e.dial.wmu, &e.dial.writes)
		reqR := bySession(&e.listen.rmu, &e.listen.reads)
		repW := bySession(&e.listen.wmu, &e.listen.writes)
		repR := bySession(&e.dial.rmu, &e.dial.reads)
		for sid, ws := range reqW {
			as, rs, bs := reqR[sid], repW[sid], repR[sid]
			if len(as) != len(ws) || len(rs) != len(bs) || len(bs) == 0 {
				continue
			}
			// Walk the dialer's own view in time order: requests
			// accumulate until a reply arrives and closes the exchange.
			wi := 0
			for k, b := range bs {
				first := wi
				for wi < len(ws) && ws[wi].at <= b.at {
					wi++
				}
				if wi == first {
					break // a reply with no request before it
				}
				out = append(out, exchange{
					hop:       e.dial.hop,
					link:      name,
					session:   sid,
					index:     k,
					reqType:   ws[first].typ,
					repType:   b.typ,
					reqStart:  ws[first].at,
					reqArrive: as[wi-1].at,
					repWrite:  rs[k].at,
					repArrive: b.at,
				})
			}
		}
	}
	return out
}

// bySession groups a connection's sessioned frame events by session
// tag, keeping their order.
func bySession(mu *sync.Mutex, evs *[]frameEvent) map[uint64][]frameEvent {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[uint64][]frameEvent)
	for _, ev := range *evs {
		if ev.sessioned {
			out[ev.session] = append(out[ev.session], ev)
		}
	}
	return out
}
