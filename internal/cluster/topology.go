package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/ddnn/ddnn-go/internal/wire"
)

// TenantConfig selects the exit-threshold policy one tenant's traffic
// runs under. Each tenant gets its own Pipeline built from these
// thresholds over the shared model, so one cluster serves applications
// with different accuracy/latency trade-offs (§III-D: the threshold is
// the knob that moves samples between exits).
type TenantConfig struct {
	// LocalThreshold is the tenant's local-exit normalized-entropy
	// threshold.
	LocalThreshold float64
	// EdgeThreshold is the tenant's edge-exit threshold, used only when
	// the model has an edge tier.
	EdgeThreshold float64
}

// TopologyConfig is a versioned snapshot of the hierarchy's runtime
// shape: which device slots are occupied and which tenants are
// configured. Every mutation — a device admitted, removed or
// re-registered, a tenant added, changed or deleted — bumps Version.
// Sessions pin the version current when they start and complete under
// it, so staged parity stays bit-identical across membership and
// threshold changes (the same mechanism a model-version rollout needs).
type TopologyConfig struct {
	// Version is the config version: 1 for a new gateway, then bumped by
	// every mutation.
	Version uint64
	// Slots is the total device-slot count of the hierarchy
	// (model.Cfg.Devices); it never changes at runtime.
	Slots int
	// Present marks the slots currently occupied by a registered device
	// (regardless of health: a present-but-down device stays a member).
	Present []bool
	// Tenants maps tenant name to its exit-threshold config.
	Tenants map[string]TenantConfig
}

// Topology returns a snapshot of the versioned runtime topology.
func (g *Gateway) Topology() TopologyConfig {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	tc := TopologyConfig{
		Version: g.configVersion,
		Slots:   len(g.devices),
		Present: make([]bool, len(g.devices)),
		Tenants: make(map[string]TenantConfig, len(g.tenants)),
	}
	for i, dl := range g.devices {
		tc.Present[i] = dl.link != nil
	}
	for name, t := range g.tenants {
		tc.Tenants[name] = t.cfg
	}
	return tc
}

// AdmitDevice installs (or re-installs) a device into slot by dialing
// its data-plane address; see admitConn. It returns the config version
// the admission produced.
func (g *Gateway) AdmitDevice(ctx context.Context, slot int, addr string) (uint64, error) {
	if err := g.checkDeviceSlot(slot); err != nil {
		return 0, fmt.Errorf("cluster: admit device: %w", err)
	}
	conn, err := g.tr.Dial(ctx, addr)
	if err != nil {
		return 0, fmt.Errorf("cluster: admit device %d: dial %s: %w", slot, addr, err)
	}
	_, v, err := g.admitConn(slot, conn, addr, nil)
	if err != nil {
		return 0, err
	}
	g.logger.Info("device admitted", "slot", slot, "addr", addr, "config_version", v)
	return v, nil
}

// admitConn installs conn, dialed at addr, as the data link of slot,
// which the caller has checked; only is as in swapLink. An empty addr is
// a device that dialed in: the DeviceWelcome is the link's first
// frame, so the link's write lock is held from before the link is visible
// until the welcome is out. On error conn is closed.
func (g *Gateway) admitConn(slot int, conn net.Conn, addr string, only *link) (*link, uint64, error) {
	l := g.newDeviceLink(slot, conn)
	welcome := addr == ""
	if welcome {
		l.wmu.Lock()
		defer l.wmu.Unlock()
	}
	v, ok := g.swapLink(slot, l, addr, only)
	if !ok {
		l.close()
		return nil, 0, ErrClosed
	}
	if welcome {
		// A failed write fails the link; the slot keeps the dead link, as
		// when any link drops.
		err := l.write(time.Now().Add(g.cfg.HeartbeatInterval), &wire.DeviceWelcome{Slot: uint16(slot), Devices: uint16(len(g.devices)), ConfigVersion: v})
		if err != nil {
			return nil, 0, err
		}
	}
	return l, v, nil
}

// RemoveDevice deregisters the device in slot (swapLink): the slot
// becomes absent and new sessions no longer fan out to it. Removing an
// absent slot still bumps the version; a device that joined through the
// registration plane re-joins on its own. It returns the new version.
func (g *Gateway) RemoveDevice(slot int) (uint64, error) {
	if err := g.checkDeviceSlot(slot); err != nil {
		return 0, fmt.Errorf("cluster: remove device: %w", err)
	}
	v, _ := g.swapLink(slot, nil, "", nil)
	g.logger.Info("device removed", "slot", slot, "config_version", v)
	return v, nil
}

// swapLink makes l (dialed at addr) the link of slot — nil vacates it —
// resets its down flag (a re-dial of a down slot keeps it), bumps the
// config version and closes the replaced link, whose in-flight sessions
// degrade like a device timeout; it returns the new version. It changes
// nothing and reports false when only is non-nil and no longer holds the
// slot, or l is new and the gateway closed.
func (g *Gateway) swapLink(slot int, l *link, addr string, only *link) (uint64, bool) {
	g.stateMu.Lock()
	dl := g.devices[slot]
	if l != nil && g.closed || only != nil && dl.link != only {
		g.stateMu.Unlock()
		return 0, false
	}
	old := dl.link
	dl.link, dl.addr = l, addr
	if l != nil && only != nil && dl.down {
		// A re-dial replaces a broken link but proves nothing about the
		// device: it stays down until the new link's first frame.
		l.armed.Store(true)
	} else {
		dl.down = false
	}
	g.configVersion++
	v := g.configVersion
	g.stateMu.Unlock()
	if old != nil {
		old.close()
	}
	return v, true
}

// SetTenant installs or updates a tenant's exit-threshold config and
// bumps the config version. The tenant's pipeline is built and validated
// here, at admission time, so classify paths never re-derive it.
func (g *Gateway) SetTenant(name string, tc TenantConfig) (uint64, error) {
	pipeline := BuildPipeline(g.model.Cfg, tc.LocalThreshold, tc.EdgeThreshold)
	if err := pipeline.Validate(); err != nil {
		return 0, fmt.Errorf("cluster: tenant %q: %w", name, err)
	}
	g.stateMu.Lock()
	g.tenants[name] = tenantEntry{cfg: tc, pipeline: pipeline}
	g.configVersion++
	v := g.configVersion
	g.stateMu.Unlock()
	g.logger.Info("tenant configured", "tenant", name, "local_threshold", tc.LocalThreshold, "edge_threshold", tc.EdgeThreshold, "config_version", v)
	return v, nil
}

// RemoveTenant deletes a tenant's config (its traffic falls back to the
// gateway's default pipeline) and bumps the config version.
func (g *Gateway) RemoveTenant(name string) uint64 {
	g.stateMu.Lock()
	delete(g.tenants, name)
	g.configVersion++
	v := g.configVersion
	g.stateMu.Unlock()
	g.logger.Info("tenant removed", "tenant", name, "config_version", v)
	return v
}

// TenantPipeline resolves the exit pipeline a tenant's traffic runs
// under: the tenant's own thresholds when configured, the gateway
// default otherwise (unknown tenants are first-class, they just get the
// default policy).
func (g *Gateway) TenantPipeline(tenant string) Pipeline {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	if t, ok := g.tenants[tenant]; ok {
		return t.pipeline
	}
	return g.pipeline
}

// memberSnapshot is the membership view one session runs under: the
// config version current when the session started and, per slot, the
// link to fan out to (nil for absent or down slots). Sessions never
// re-read membership after this snapshot, which is what keeps a
// completed classification bit-identical to the staged reference under
// the presence mask and config version the session observed, even while
// devices join and leave concurrently.
type memberSnapshot struct {
	version uint64
	links   []*link
}

// snapshotMembers captures the session's membership view under the
// state lock into snap, reusing its links slice. A device the failure
// detector marked down is left out until its next echo re-admits it.
func (g *Gateway) snapshotMembers(snap *memberSnapshot) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	snap.version = g.configVersion
	snap.links = resize(snap.links, len(g.devices))
	for i, dl := range g.devices {
		snap.links[i] = nil
		if !dl.down {
			snap.links[i] = dl.link
		}
	}
}
