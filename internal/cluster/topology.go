package cluster

import (
	"context"
	"fmt"

	"github.com/ddnn/ddnn-go/internal/transport"
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
	// Version is the monotonically increasing config version.
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

// ConfigVersion returns the current topology config version. It starts
// at 1 for a freshly constructed gateway and bumps on every membership
// or tenant mutation.
func (g *Gateway) ConfigVersion() uint64 {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	return g.configVersion
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

// PresentSlots reports which device slots are occupied by a registered
// device (membership, not health).
func (g *Gateway) PresentSlots() []bool {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	out := make([]bool, len(g.devices))
	for i, dl := range g.devices {
		out[i] = dl.link != nil
	}
	return out
}

// AdmitDevice installs (or re-installs) a device into slot: the gateway
// dials the device's data-plane address, swaps the slot's link under the
// state lock and bumps the config version. An occupied slot is replaced
// — that is re-registration: the old link closes, in-flight sessions
// that snapshotted it degrade gracefully, and new sessions use the fresh
// link. The down flag resets, so an admitted device starts live.
// It returns the config version the admission produced.
func (g *Gateway) AdmitDevice(ctx context.Context, slot int, addr string) (uint64, error) {
	if slot < 0 || slot >= len(g.devices) {
		return 0, fmt.Errorf("cluster: admit device: slot %d of %d slots: %w", slot, len(g.devices), ErrDeviceSlotMismatch)
	}
	conn, err := g.tr.Dial(ctx, addr)
	if err != nil {
		return 0, fmt.Errorf("cluster: admit device %d: dial %s: %w", slot, addr, err)
	}
	cc := transport.NewCountingConn(conn)
	l := newLink(cc, func(l *link) { g.reviveDevice(slot, l) })
	g.stateMu.Lock()
	if g.closed {
		g.stateMu.Unlock()
		l.close()
		return 0, ErrClosed
	}
	dl := g.devices[slot]
	old := dl.link
	dl.link = l
	dl.down = false
	g.wireConns[slot] = cc
	g.configVersion++
	v := g.configVersion
	g.stateMu.Unlock()
	if old != nil {
		old.close()
	}
	g.logger.Info("device admitted", "slot", slot, "addr", addr, "config_version", v)
	return v, nil
}

// RemoveDevice deregisters the device in slot: the slot becomes absent,
// its link closes and the config version bumps. Sessions in flight
// complete under the membership snapshot they observed (the closed link
// degrades like a device timeout); new sessions no longer fan out to the
// slot. Removing an already-absent slot still bumps the version, so a
// goodbye always produces a fresh version to acknowledge with. It
// returns the resulting config version.
func (g *Gateway) RemoveDevice(slot int) (uint64, error) {
	if slot < 0 || slot >= len(g.devices) {
		return 0, fmt.Errorf("cluster: remove device: slot %d of %d slots: %w", slot, len(g.devices), ErrDeviceSlotMismatch)
	}
	g.stateMu.Lock()
	dl := g.devices[slot]
	old := dl.link
	dl.link = nil
	dl.down = false
	g.wireConns[slot] = nil
	g.configVersion++
	v := g.configVersion
	g.stateMu.Unlock()
	if old != nil {
		old.close()
	}
	g.logger.Info("device removed", "slot", slot, "config_version", v)
	return v, nil
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
// state lock. A device the failure detector marked down is left out
// until its next echo re-admits it.
func (g *Gateway) snapshotMembers() memberSnapshot {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	links := make([]*link, len(g.devices))
	for i, dl := range g.devices {
		if !dl.down {
			links[i] = dl.link
		}
	}
	return memberSnapshot{version: g.configVersion, links: links}
}
