package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// ServeRegistration starts the gateway's registration plane on addr, a
// listener devices dial to join without a gateway restart, until the
// gateway closes. A device's first frame is a DeviceHello; the gateway
// installs the connection as the slot's data link (admitConn) and
// answers with a DeviceWelcome. A DeviceGoodbye on the link vacates the
// slot, and the link closing acknowledges it. A connection that sends no
// hello within the detector's silence bound (heartbeatMisses intervals)
// is closed; any other first frame, or a slot the hierarchy lacks, gets
// a wire.Error and is closed.
func (g *Gateway) ServeRegistration(tr transport.Transport, addr string) error {
	if err := g.regPlane.listen(tr, addr, g.handleRegistration); err != nil {
		return err
	}
	g.logger.Info("registration plane serving", "addr", addr)
	return nil
}

// handleRegistration serves one accepted registration connection: its
// hello, then nothing until the data link it became ends, so the plane
// tracks the connection — and Close closes it — like any other.
func (g *Gateway) handleRegistration(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(heartbeatMisses * g.cfg.HeartbeatInterval))
	msg, err := wire.Decode(conn)
	if err != nil {
		if !g.regPlane.isClosed() {
			g.logger.Warn("registration connection ended without a hello", "err", err)
		}
		return
	}
	hello, ok := msg.(*wire.DeviceHello)
	if !ok {
		err = fmt.Errorf("expected DeviceHello, got %v", msg.MsgType())
	} else {
		err = g.checkDeviceSlot(int(hello.Slot))
	}
	if err != nil {
		g.logger.Warn("registration refused", "err", err)
		_, _ = wire.Encode(conn, &wire.Error{Code: 400, Msg: err.Error()})
		return
	}
	_ = conn.SetDeadline(time.Time{})
	l, v, err := g.admitConn(int(hello.Slot), conn, "", nil)
	if err != nil {
		g.logger.Warn("registration failed", "node", hello.NodeID, "slot", hello.Slot, "err", err)
		return
	}
	g.logger.Info("device registered", "node", hello.NodeID, "slot", hello.Slot, "config_version", v)
	<-l.done
}

// Join registers the device with the gateway's registration plane at
// addr under nodeID: it dials, says hello and, once the DeviceWelcome
// arrives, serves the gateway's sessions on that one connection — no
// listener. It returns the welcome or the refusal, within ctx. Whenever
// the link ends the device re-dials and says hello again, every
// heartbeat interval, until Drain (which says goodbye first) or Close.
func (d *Device) Join(ctx context.Context, tr transport.Transport, addr, nodeID string) (*wire.DeviceWelcome, error) {
	j := &joiner{d: d, tr: tr, addr: addr, hello: wire.DeviceHello{NodeID: nodeID, Slot: uint16(d.index)}}
	conn, welcome, err := j.dial(ctx)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: join %s: %w", d.name, addr, err)
	}
	if !d.serve(conn, j.serve) {
		return nil, ErrClosed
	}
	return welcome, nil
}

// joiner is a joined device's side of its link.
type joiner struct {
	d     *Device
	tr    transport.Transport
	addr  string
	hello wire.DeviceHello
}

// dial dials the registration plane and says hello; it returns the
// connection once its first frame, the DeviceWelcome, arrives.
func (j *joiner) dial(ctx context.Context) (net.Conn, *wire.DeviceWelcome, error) {
	conn, err := j.tr.Dial(ctx, j.addr)
	if err != nil {
		return nil, nil, err
	}
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	var msg wire.Message
	if _, err = wire.Encode(conn, &j.hello); err == nil {
		msg, err = wire.Decode(conn)
	}
	switch m := msg.(type) {
	case nil: // err says why
	case *wire.DeviceWelcome:
		return conn, m, nil
	case *wire.Error:
		err = fmt.Errorf("gateway refused: %d %s", m.Code, m.Msg)
	default:
		err = fmt.Errorf("expected DeviceWelcome, got %v", msg.MsgType())
	}
	conn.Close()
	return nil, nil, err
}

// serve runs the frame loop on a connection the device dialed. The link
// counts as in-flight work, so Drain waits for the gateway to close it
// after the goodbye the device sends when it starts leaving. A link that
// ends otherwise is re-dialed every heartbeat interval until a hello is
// welcomed, and the new connection is served the same way.
func (j *joiner) serve(conn net.Conn) {
	d := j.d
	c := &nodeConn{conn: conn, srv: &d.server}
	d.active.Add(1)
	stop := context.AfterFunc(d.leaving, func() {
		_ = c.send(&wire.DeviceGoodbye{NodeID: j.hello.NodeID, Slot: j.hello.Slot, Reason: "shutdown"})
	})
	d.serveFrames(c)
	stop()
	d.active.Add(-1)
	conn.Close()
	if d.leaving.Err() == nil {
		d.logger.Warn("gateway link ended; re-joining", "gateway", j.addr)
	}
	for {
		select {
		case <-d.leaving.Done():
			return
		case <-time.After(defaultHeartbeatInterval):
		}
		ctx, cancel := context.WithTimeout(d.leaving, heartbeatMisses*defaultHeartbeatInterval)
		next, welcome, err := j.dial(ctx)
		cancel()
		if err == nil {
			d.logger.Info("re-joined", "gateway", j.addr, "config_version", welcome.ConfigVersion)
			d.serve(next, j.serve)
			return
		}
		d.logger.Debug("re-join failed", "gateway", j.addr, "err", err)
	}
}

// Drain gracefully shuts the device down like every node (server.Drain);
// a joined device says goodbye on its link first.
func (d *Device) Drain(ctx context.Context) error {
	d.leave()
	return d.server.Drain(ctx)
}
