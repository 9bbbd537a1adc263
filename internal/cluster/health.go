package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// HealthMonitor probes every device — and every replica of the upstream
// tier (edge or cloud) when upstream addresses are given — over
// dedicated connections and drives the gateway's up/down state: a node
// that misses consecutive heartbeats is marked down (so inference
// sessions skip the device, or the replica pool stops scheduling the
// replica, without waiting for timeouts), and a node that answers again
// is marked up — giving the cluster automatic recovery, the flip side of
// the fault tolerance evaluated in §IV-G. A probe connection that dies
// (e.g. the peer process was killed) is re-dialed on the next tick, so
// a restarted node is re-admitted instead of staying down forever.
type HealthMonitor struct {
	gw       *Gateway
	tr       transport.Transport
	interval time.Duration
	misses   int

	// monitored records that this monitor took over the upstream pool's
	// recovery, and devices lists the devices whose recovery it took
	// over; Stop must hand both back.
	monitored bool
	devices   []int

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// StartHealthMonitor dials a probe connection to each device and to each
// upstream replica and begins heartbeating every interval. A node is
// marked down after `misses` consecutive unanswered probes and marked up
// again on the first answer. Attaching a monitor hands the recovery of
// the upstream pool and of the probed devices to it: no half-open trial
// sessions go to fenced replicas or down devices. The context bounds the
// initial probe dials only.
func (g *Gateway) StartHealthMonitor(ctx context.Context, tr transport.Transport, deviceAddrs []string, upstreamAddrs []string, interval time.Duration, misses int) (*HealthMonitor, error) {
	if len(deviceAddrs) > len(g.devices) {
		return nil, fmt.Errorf("cluster: health monitor got %d device addresses for %d slots: %w", len(deviceAddrs), len(g.devices), ErrDeviceSlotMismatch)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("cluster: health interval must be positive, got %v", interval)
	}
	if misses <= 0 {
		misses = 3
	}
	hm := &HealthMonitor{
		gw:       g,
		tr:       tr,
		interval: interval,
		misses:   misses,
		stop:     make(chan struct{}),
	}
	// Targets: device i probes as target i; upstream replica i probes as
	// target -(i+1), routed to the replica pool's health state. A partial
	// device list (fewer addresses than slots, or empty-string entries)
	// leaves the unnamed slots unprobed — absent slots are kept out of
	// sessions by membership (nil link), not by health, so a probe
	// verdict can never resurrect an unregistered slot.
	targets := make([]int, 0, len(deviceAddrs)+len(upstreamAddrs))
	addrs := make([]string, 0, len(deviceAddrs)+len(upstreamAddrs))
	for i, addr := range deviceAddrs {
		if addr == "" {
			continue
		}
		targets = append(targets, i)
		addrs = append(addrs, addr)
	}
	for i, addr := range upstreamAddrs {
		targets = append(targets, -(i + 1))
		addrs = append(addrs, addr)
	}
	for i, addr := range addrs {
		conn, err := hm.tr.Dial(ctx, addr)
		if err != nil {
			hm.Stop()
			if targets[i] < 0 {
				return nil, fmt.Errorf("cluster: health dial %v replica %d: %w", g.upstreamExit(), -targets[i]-1, err)
			}
			return nil, fmt.Errorf("cluster: health dial device %d: %w", targets[i], err)
		}
		hm.wg.Add(1)
		go hm.probeLoop(targets[i], addr, conn)
	}
	hm.devices = targets[:len(targets)-len(upstreamAddrs)]
	g.setDevicesMonitored(hm.devices, true)
	if len(upstreamAddrs) > 0 {
		// Only a running monitor may own the pool's recovery; Stop hands
		// it back to half-open trial sessions.
		hm.monitored = true
		g.upstream.setMonitored(true)
	}
	return hm, nil
}

func (hm *HealthMonitor) probeLoop(target int, addr string, conn net.Conn) {
	defer hm.wg.Done()
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	nodeID := fmt.Sprintf("gw-probe-%d", target)
	if target < 0 {
		nodeID = fmt.Sprintf("gw-probe-upstream-%d", -target-1)
	}
	ticker := time.NewTicker(hm.interval)
	defer ticker.Stop()
	consecutive := 0
	var seq uint64
	for {
		select {
		case <-hm.stop:
			return
		case <-ticker.C:
		}
		seq++
		if conn == nil {
			// The previous probe connection died; re-dial so a restarted
			// node can be re-admitted.
			dctx, cancel := context.WithTimeout(context.Background(), hm.interval)
			c, err := hm.tr.Dial(dctx, addr)
			cancel()
			if err != nil {
				consecutive++
				if consecutive >= hm.misses {
					hm.setDown(target, true)
				}
				continue
			}
			conn = c
		}
		ok, connDead := hm.probeOnce(conn, nodeID, seq)
		if ok {
			consecutive = 0
			hm.setDown(target, false)
			continue
		}
		if connDead {
			conn.Close()
			conn = nil
		}
		consecutive++
		if consecutive >= hm.misses {
			hm.setDown(target, true)
		}
	}
}

// setDown routes a probe verdict to the right availability flag.
func (hm *HealthMonitor) setDown(target int, down bool) {
	if target < 0 {
		hm.gw.setUpstreamReplicaDown(-target-1, down)
		return
	}
	hm.gw.setDeviceDown(target, down)
}

// probeOnce sends one heartbeat and waits up to the probe interval for
// the echo, discarding unrelated stale frames. connDead reports that the
// connection itself failed (write error), as opposed to a live peer that
// stayed silent; dead connections are re-dialed on the next tick.
func (hm *HealthMonitor) probeOnce(conn net.Conn, nodeID string, seq uint64) (ok, connDead bool) {
	// The write carries a deadline too: a peer that stops draining the
	// link (a wedged node, or an unbuffered in-memory pipe whose reader
	// is stuck in its own blocked echo write) would otherwise block this
	// Encode forever, wedging the probe loop and hanging Stop. A write
	// that cannot complete within one probe interval is a dead
	// connection; closing it also unblocks the peer's stuck echo.
	_ = conn.SetWriteDeadline(time.Now().Add(hm.interval))
	_, err := wire.Encode(conn, &wire.Heartbeat{NodeID: nodeID, Seq: seq})
	_ = conn.SetWriteDeadline(time.Time{})
	if err != nil {
		return false, true
	}
	_ = conn.SetReadDeadline(time.Now().Add(hm.interval))
	defer conn.SetReadDeadline(time.Time{})
	for {
		msg, err := wire.Decode(conn)
		if err != nil {
			// A read timeout means the peer stayed silent; any other
			// decode failure poisons the stream, so re-dial.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return false, false
			}
			return false, true
		}
		hb, isHB := msg.(*wire.Heartbeat)
		if !isHB {
			continue
		}
		if hb.Seq >= seq {
			return true, false
		}
		// A stale echo from an earlier probe; keep reading.
	}
}

// Stop terminates all probe loops and closes their connections.
// Recovery of the devices and replicas the monitor owned reverts to
// half-open trial sessions, so nodes marked down can still be
// re-admitted.
func (hm *HealthMonitor) Stop() {
	hm.once.Do(func() { close(hm.stop) })
	hm.wg.Wait()
	hm.gw.setDevicesMonitored(hm.devices, false)
	if hm.monitored {
		hm.gw.upstream.setMonitored(false)
	}
}

// setDevicesMonitored hands the devices' recovery to a health monitor
// (on) or back to half-open trial sessions (off).
func (g *Gateway) setDevicesMonitored(devices []int, on bool) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	for _, d := range devices {
		g.devices[d].monitored = on
	}
}

// setDeviceDown flips a device's availability from the failure detector.
func (g *Gateway) setDeviceDown(device int, down bool) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	dl := g.devices[device]
	if dl.down == down {
		return
	}
	dl.down = down
	dl.failures = 0
	if down {
		g.logger.Warn("health monitor marked device down", "device", device)
	} else {
		g.logger.Info("health monitor marked device up", "device", device)
	}
}
