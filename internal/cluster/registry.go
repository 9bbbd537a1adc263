package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// registrationDialTimeout bounds the gateway's dial-back to a
// registering device's data-plane address.
const registrationDialTimeout = 5 * time.Second

// ServeRegistration starts the gateway's registration plane on addr: a
// listener accepting DeviceHello / DeviceGoodbye frames so devices can
// join, leave and re-register mid-run without a gateway restart. On a
// hello the gateway dials the device's advertised data-plane address
// back (the data plane keeps its gateway→device dial direction, so the
// capture/feature machinery is unchanged), installs the slot, and
// answers with a DeviceWelcome carrying the new topology config
// version; registration failures answer with a wire.Error. A goodbye
// removes the slot and is acknowledged the same way. The listener runs
// until the gateway closes.
func (g *Gateway) ServeRegistration(tr transport.Transport, addr string) error {
	if err := g.regPlane.listen(tr, addr, g.handleRegistration); err != nil {
		return err
	}
	g.logger.Info("registration plane serving", "addr", addr)
	return nil
}

// handleRegistration serves one registration connection: any number of
// hello/goodbye exchanges (a device may register, later deregister, and
// re-register over one connection or fresh ones — both work).
func (g *Gateway) handleRegistration(conn net.Conn) {
	send := func(m wire.Message) error {
		_, err := wire.Encode(conn, m)
		return err
	}
	for {
		msg, err := wire.Decode(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !g.regPlane.isClosed() {
				g.logger.Warn("registration frame error", "err", err)
			}
			return
		}
		switch m := msg.(type) {
		case *wire.DeviceHello:
			ctx, cancel := context.WithTimeout(context.Background(), registrationDialTimeout)
			v, err := g.AdmitDevice(ctx, int(m.Slot), m.Addr)
			cancel()
			if err != nil {
				g.logger.Warn("registration rejected", "node", m.NodeID, "slot", m.Slot, "err", err)
				code := uint16(400)
				if errors.Is(err, ErrClosed) {
					code = 503
				}
				if send(&wire.Error{Code: code, Msg: err.Error()}) != nil {
					return
				}
				continue
			}
			g.logger.Info("device registered", "node", m.NodeID, "slot", m.Slot, "tenant", m.Tenant, "config_version", v)
			if send(&wire.DeviceWelcome{Slot: m.Slot, Devices: uint16(len(g.devices)), ConfigVersion: v}) != nil {
				return
			}
		case *wire.DeviceGoodbye:
			v, err := g.RemoveDevice(int(m.Slot))
			if err != nil {
				if send(&wire.Error{Code: 400, Msg: err.Error()}) != nil {
					return
				}
				continue
			}
			g.logger.Info("device deregistered", "node", m.NodeID, "slot", m.Slot, "reason", m.Reason, "config_version", v)
			if send(&wire.DeviceWelcome{Slot: m.Slot, Devices: uint16(len(g.devices)), ConfigVersion: v}) != nil {
				return
			}
		case *wire.Heartbeat:
			if send(m) != nil { // echo, same as the data-plane nodes
				return
			}
		default:
			if send(&wire.Error{Code: 400, Msg: fmt.Sprintf("unexpected %v on registration plane", msg.MsgType())}) != nil {
				return
			}
		}
	}
}

// Register performs the device side of the registration handshake: it
// dials the gateway's registration plane, announces the device's slot,
// tenant and data-plane address, and waits for the DeviceWelcome. The
// returned welcome carries the topology config version the admission
// produced. The context bounds the whole exchange.
func Register(ctx context.Context, tr transport.Transport, gatewayAddr string, hello *wire.DeviceHello) (*wire.DeviceWelcome, error) {
	reply, err := registrationExchange(ctx, tr, gatewayAddr, hello)
	if err != nil {
		return nil, fmt.Errorf("cluster: register device %d: %w", hello.Slot, err)
	}
	return reply, nil
}

// Deregister performs the device side of a goodbye: it tells the
// gateway's registration plane the slot is vacating and waits for the
// acknowledging DeviceWelcome.
func Deregister(ctx context.Context, tr transport.Transport, gatewayAddr string, goodbye *wire.DeviceGoodbye) (*wire.DeviceWelcome, error) {
	reply, err := registrationExchange(ctx, tr, gatewayAddr, goodbye)
	if err != nil {
		return nil, fmt.Errorf("cluster: deregister device %d: %w", goodbye.Slot, err)
	}
	return reply, nil
}

// registrationExchange dials the registration plane, sends one frame
// and reads the reply, honoring ctx through a connection deadline.
func registrationExchange(ctx context.Context, tr transport.Transport, addr string, m wire.Message) (*wire.DeviceWelcome, error) {
	conn, err := tr.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	if _, err := wire.Encode(conn, m); err != nil {
		return nil, err
	}
	reply, err := wire.Decode(conn)
	if err != nil {
		return nil, err
	}
	switch r := reply.(type) {
	case *wire.DeviceWelcome:
		return r, nil
	case *wire.Error:
		return nil, fmt.Errorf("gateway refused: %d %s", r.Code, r.Msg)
	default:
		return nil, fmt.Errorf("expected DeviceWelcome, got %v", reply.MsgType())
	}
}
