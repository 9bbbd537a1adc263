package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// membershipCluster starts one device node per model slot plus a cloud
// over the transport and returns the device addresses (the gateway is
// the caller's to build, so tests can construct partial sets).
func membershipCluster(t *testing.T, tr transport.Transport, prefix string) (addrs []string, cloudAddr string) {
	t.Helper()
	model, test := fixture(t)
	addrs = make([]string, model.Cfg.Devices)
	for d := 0; d < model.Cfg.Devices; d++ {
		dev := NewDevice(model, d, DatasetFeed(test, d), quietLogger())
		addrs[d] = fmt.Sprintf("%s-device-%d", prefix, d)
		if err := dev.Serve(tr, addrs[d]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
	}
	cloud := NewCloud(model, quietLogger())
	cloudAddr = prefix + "-cloud"
	if err := cloud.Serve(tr, cloudAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })
	return addrs, cloudAddr
}

func TestGatewayRejectsTooManyDeviceAddrs(t *testing.T) {
	model, _ := fixture(t)
	tr := transport.NewMem()
	addrs := make([]string, model.Cfg.Devices+1)
	_, err := NewGateway(context.Background(), model, DefaultGatewayConfig(), tr, addrs, []string{"nope"}, quietLogger())
	if !errors.Is(err, ErrDeviceSlotMismatch) {
		t.Fatalf("err = %v, want ErrDeviceSlotMismatch", err)
	}
}

// TestPartialDeviceSetServesAndAdmits constructs a gateway with one slot
// deliberately absent, checks that classification degrades to the
// present devices with staged parity under the observed mask, then
// admits and removes the missing device at runtime, asserting version
// bumps and membership changes take effect for new sessions.
func TestPartialDeviceSetServesAndAdmits(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "partial")

	absent := model.Cfg.Devices - 1
	partial := append([]string(nil), addrs...)
	partial[absent] = "" // explicitly absent slot
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = 1 // local exits: the observed mask fully determines the verdict
	gw, err := NewGateway(context.Background(), model, gcfg, tr, partial, []string{cloudAddr}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	if v := gw.Topology().Version; v != 1 {
		t.Errorf("fresh gateway ConfigVersion = %d, want 1", v)
	}
	topo := gw.Topology()
	if topo.Present[absent] {
		t.Errorf("slot %d present at construction, want absent", absent)
	}

	wantMask := make([]bool, model.Cfg.Devices)
	for d := range wantMask {
		wantMask[d] = d != absent
	}
	ref := core.NewReference(model, test)
	pol := branchy.NewPolicy(1, 1)
	for id := 0; id < 8; id++ {
		res, err := classifyOne(context.Background(), gw, uint64(id))
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		if res.Present[absent] {
			t.Fatalf("sample %d: absent slot %d contributed", id, absent)
		}
		if res.ConfigVersion != 1 {
			t.Errorf("sample %d: ConfigVersion = %d, want 1", id, res.ConfigVersion)
		}
		wantExit, wantClass := stagedExpectation(ref.For(res.Present, 1), pol, id)
		if res.Exit != wantExit || res.Class != wantClass {
			t.Errorf("sample %d: got %v/%d, staged reference says %v/%d under mask %v",
				id, res.Exit, res.Class, wantExit, wantClass, res.Present)
		}
	}

	// Admit the missing device: the next session must include it and run
	// under the bumped version, with parity under the full mask.
	v, err := gw.AdmitDevice(context.Background(), absent, addrs[absent])
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("AdmitDevice version = %d, want 2", v)
	}
	res, err := classifyOne(context.Background(), gw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Present[absent] {
		t.Error("admitted device did not contribute")
	}
	if res.ConfigVersion != 2 {
		t.Errorf("post-admission ConfigVersion = %d, want 2", res.ConfigVersion)
	}
	wantExit, wantClass := stagedExpectation(ref.For(res.Present, 1), pol, 0)
	if res.Exit != wantExit || res.Class != wantClass {
		t.Errorf("post-admission: got %v/%d, want %v/%d", res.Exit, res.Class, wantExit, wantClass)
	}

	// Remove it again: membership shrinks, version bumps.
	v, err = gw.RemoveDevice(absent)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("RemoveDevice version = %d, want 3", v)
	}
	res, err = classifyOne(context.Background(), gw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Present[absent] {
		t.Error("removed device still contributed")
	}
	if res.ConfigVersion != 3 {
		t.Errorf("post-removal ConfigVersion = %d, want 3", res.ConfigVersion)
	}

	// Slot bounds are typed errors.
	if _, err := gw.AdmitDevice(context.Background(), model.Cfg.Devices, "x"); !errors.Is(err, ErrDeviceSlotMismatch) {
		t.Errorf("out-of-range admit err = %v, want ErrDeviceSlotMismatch", err)
	}
	if _, err := gw.RemoveDevice(-1); !errors.Is(err, ErrDeviceSlotMismatch) {
		t.Errorf("out-of-range remove err = %v, want ErrDeviceSlotMismatch", err)
	}
}

// TestRegistrationHandshake drives the registration plane, one
// connection per device: devices that never listen join with a hello and
// serve sessions on the connection they dialed, each welcome reports its
// admission's config version, a draining device's goodbye vacates its
// slot, a fresh device re-registers it, and a hello for a slot the
// hierarchy lacks is refused.
func TestRegistrationHandshake(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "reg")

	// Start with only device 0 present.
	partial := make([]string, model.Cfg.Devices)
	partial[0] = addrs[0]
	gw := registrationGateway(t, tr, DefaultGatewayConfig(), partial, cloudAddr)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Join every remaining slot through the handshake.
	devs := make([]*Device, model.Cfg.Devices)
	for d := 1; d < model.Cfg.Devices; d++ {
		var welcome *wire.DeviceWelcome
		devs[d], welcome = joinDevice(t, ctx, tr, d)
		if int(welcome.Slot) != d || int(welcome.Devices) != model.Cfg.Devices {
			t.Errorf("welcome = %+v", welcome)
		}
		// Construction is version 1; each join bumps by one.
		if welcome.ConfigVersion != uint64(d+1) {
			t.Errorf("slot %d welcome version = %d, want %d", d, welcome.ConfigVersion, d+1)
		}
	}
	for d, p := range gw.Topology().Present {
		if !p {
			t.Errorf("slot %d absent after registration", d)
		}
	}

	// Classification now uses the full membership.
	res, err := classifyOne(ctx, gw, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d, p := range res.Present {
		if !p {
			t.Errorf("slot %d missing from session after joining", d)
		}
	}

	// Slot 2 drains: its goodbye vacates the slot, and the gateway
	// closing the link acknowledges it before Drain returns.
	before := gw.Topology().Version
	if err := devs[2].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if v := gw.Topology().Version; v != before+1 {
		t.Errorf("version after goodbye = %d, want %d", v, before+1)
	}
	if gw.Topology().Present[2] {
		t.Error("slot 2 still present after goodbye")
	}
	joinDevice(t, ctx, tr, 2)
	if !gw.Topology().Present[2] {
		t.Error("slot 2 absent after re-registration")
	}

	// A hello naming an impossible slot is refused with a wire error.
	bad := NewDevice(model, model.Cfg.Devices, DatasetFeed(test, 0), quietLogger())
	defer bad.Close()
	if _, err := bad.Join(ctx, tr, "reg-plane", "bad"); err == nil || !strings.Contains(err.Error(), "refused: 400") {
		t.Errorf("out-of-range hello: Join = %v, want a 400 refusal", err)
	}
}

// registrationGateway builds a gateway over deviceAddrs serving the
// registration plane at "reg-plane".
func registrationGateway(t *testing.T, tr transport.Transport, gcfg GatewayConfig, deviceAddrs []string, cloudAddr string) *Gateway {
	t.Helper()
	model, _ := fixture(t)
	gw, err := NewGateway(context.Background(), model, gcfg, tr, deviceAddrs, []string{cloudAddr}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	if err := gw.ServeRegistration(tr, "reg-plane"); err != nil {
		t.Fatal(err)
	}
	return gw
}

// joinDevice starts a device for slot that never listens and joins it
// to the registration plane at "reg-plane".
func joinDevice(t *testing.T, ctx context.Context, tr transport.Transport, slot int) (*Device, *wire.DeviceWelcome) {
	t.Helper()
	model, test := fixture(t)
	dev := NewDevice(model, slot, DatasetFeed(test, slot), quietLogger())
	t.Cleanup(func() { dev.Close() })
	welcome, err := dev.Join(ctx, tr, "reg-plane", fmt.Sprintf("node-%d", slot))
	if err != nil {
		t.Fatalf("join slot %d: %v", slot, err)
	}
	if dev.Addr() != "" {
		t.Errorf("joined device listens on %q", dev.Addr())
	}
	return dev, welcome
}

// slotLink returns the gateway's current link for slot.
func slotLink(gw *Gateway, slot int) *link {
	gw.stateMu.Lock()
	defer gw.stateMu.Unlock()
	return gw.devices[slot].link
}

// TestJoinedDeviceServesWithoutListener: a device that never calls Serve
// joins over the in-memory transport, and sessions that escalate as
// well as those that exit locally count it present and match the staged
// reference under the mask they report.
func TestJoinedDeviceServesWithoutListener(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "nolisten")
	joined := model.Cfg.Devices - 1
	static := append([]string(nil), addrs[:joined]...)
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = 0.5 // a mix of local exits and cloud escalations
	gw := registrationGateway(t, tr, gcfg, static, cloudAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	joinDevice(t, ctx, tr, joined)

	ref := core.NewReference(model, test)
	pol := branchy.NewPolicy(0.5, 1)
	ids := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	results, err := gw.Classify(ctx, ids, "", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.Present[joined] {
			t.Errorf("sample %d: joined slot %d not present", ids[i], joined)
		}
		wantExit, wantClass := stagedExpectation(ref.For(res.Present, 1), pol, int(ids[i]))
		if res.Exit != wantExit || res.Class != wantClass {
			t.Errorf("sample %d: got %v/%d, staged reference says %v/%d under mask %v",
				ids[i], res.Exit, res.Class, wantExit, wantClass, res.Present)
		}
	}
}

// TestJoinedDeviceRejoinsAfterLinkLoss: when the gateway closes a
// registered device's link, the device re-dials and says hello again,
// and the slot comes back on a new link under a bumped config version.
func TestJoinedDeviceRejoinsAfterLinkLoss(t *testing.T) {
	model, _ := fixture(t)
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "rejoin")
	slot := model.Cfg.Devices - 1
	gw := registrationGateway(t, tr, DefaultGatewayConfig(), addrs[:slot], cloudAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	joinDevice(t, ctx, tr, slot)

	lost := slotLink(gw, slot)
	before := gw.Topology().Version
	lost.close()
	for stop := time.Now().Add(5 * time.Second); slotLink(gw, slot) == lost; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(stop) {
			t.Fatal("the device did not re-join within 5s of losing its link")
		}
	}
	if v := gw.Topology().Version; v != before+1 {
		t.Errorf("version after re-join = %d, want %d", v, before+1)
	}
	res, err := classifyOne(ctx, gw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Present[slot] {
		t.Errorf("re-joined slot %d not present in %v", slot, res.Present)
	}
}

// TestStaleGoodbyeLeavesReplacement: device A holds slot 2 and device B
// re-registers it. A goodbye read on A's replaced link must leave B
// present and the config version untouched — the stale-link rule the
// detector's revive follows too.
func TestStaleGoodbyeLeavesReplacement(t *testing.T) {
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "stale")
	partial := append([]string(nil), addrs...)
	partial[2] = ""
	gw := registrationGateway(t, tr, DefaultGatewayConfig(), partial, cloudAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	a, _ := joinDevice(t, ctx, tr, 2)
	aLink := slotLink(gw, 2)
	joinDevice(t, ctx, tr, 2)
	// A drains before its re-join interval runs out; its goodbye finds the
	// link the gateway already closed.
	if err := a.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	before := gw.Topology().Version
	aLink.goodbye(aLink, &wire.DeviceGoodbye{NodeID: "node-2", Slot: 2, Reason: "late"})
	if !gw.Topology().Present[2] {
		t.Fatal("a stale goodbye vacated the slot's new occupant")
	}
	if v := gw.Topology().Version; v != before {
		t.Errorf("a stale goodbye bumped the version from %d to %d", before, v)
	}
	res, err := classifyOne(ctx, gw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Present[2] {
		t.Errorf("replacement in slot 2 not present in %v", res.Present)
	}
}

// TestRegistrationHelloBound: the registration plane gives a new
// connection the failure detector's silence bound to send its hello. A
// silent connection is closed; one whose first frame is not a hello, or
// a hello for a slot the hierarchy lacks, gets a 400 wire.Error and is
// closed.
func TestRegistrationHelloBound(t *testing.T) {
	model, _ := fixture(t)
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "hello")
	gcfg := DefaultGatewayConfig()
	gcfg.HeartbeatInterval = 50 * time.Millisecond
	registrationGateway(t, tr, gcfg, addrs, cloudAddr)

	dial := func() net.Conn {
		t.Helper()
		conn, err := tr.Dial(context.Background(), "reg-plane")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	// closed asserts the gateway hung up rather than the read timing out.
	closed := func(conn net.Conn, what string) {
		t.Helper()
		_, err := wire.Decode(conn)
		var ne net.Error
		if err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("%s: connection still open after 5s (read: %v)", what, err)
		}
	}

	start := time.Now()
	closed(dial(), "silent connection")
	if took := time.Since(start); took > time.Second {
		t.Errorf("silent connection closed after %v, want about %v", took, heartbeatMisses*gcfg.HeartbeatInterval)
	}

	for _, first := range []wire.Message{
		&wire.Heartbeat{NodeID: "not-a-device", Seq: 1},
		&wire.DeviceHello{NodeID: "bad", Slot: uint16(model.Cfg.Devices)},
	} {
		conn := dial()
		if _, err := wire.Encode(conn, first); err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Decode(conn)
		if e, ok := msg.(*wire.Error); err != nil || !ok || e.Code != 400 {
			t.Errorf("first frame %v: reply %+v, %v; want a 400 wire.Error", first.MsgType(), msg, err)
		}
		closed(conn, fmt.Sprintf("after a %v", first.MsgType()))
	}
}

// TestTenantPipelinesDifferentExitDistributions serves two tenants with
// opposite thresholds from one running cluster and checks that each
// tenant's traffic follows its own exit policy — with staged parity per
// tenant — while the default pipeline stays untouched.
func TestTenantPipelinesDifferentExitDistributions(t *testing.T) {
	model, test := fixture(t)
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        DefaultGatewayConfig(),
		MaxConcurrency: 4,
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if _, err := eng.SetTenant("lenient", TenantConfig{LocalThreshold: 1, EdgeThreshold: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SetTenant("strict", TenantConfig{LocalThreshold: -1, EdgeThreshold: -1}); err != nil {
		t.Fatal(err)
	}

	const samples = 20
	exits := map[string]map[wire.ExitPoint]int{}
	for _, tenant := range []string{"lenient", "strict"} {
		exits[tenant] = map[wire.ExitPoint]int{}
		for id := 0; id < samples; id++ {
			res, err := eng.ClassifyTenantShed(context.Background(), uint64(id), tenant, ShedNone)
			if err != nil {
				t.Fatalf("tenant %s sample %d: %v", tenant, id, err)
			}
			exits[tenant][res.Exit]++
		}
	}
	if exits["lenient"][wire.ExitLocal] != samples {
		t.Errorf("lenient exits = %v, want all local", exits["lenient"])
	}
	if exits["strict"][wire.ExitCloud] != samples {
		t.Errorf("strict exits = %v, want all cloud", exits["strict"])
	}

	// Tenant parity: each tenant's verdicts must match the staged
	// reference at that tenant's thresholds.
	ref := model.Evaluate(test, nil, 32)
	for _, tc := range []struct {
		tenant string
		pol    branchy.Policy
	}{
		{"lenient", branchy.NewPolicy(1, 1)},
		{"strict", branchy.NewPolicy(-1, 1)},
	} {
		for id := 0; id < samples; id++ {
			res, err := eng.ClassifyTenantShed(context.Background(), uint64(id), tc.tenant, ShedNone)
			if err != nil {
				t.Fatal(err)
			}
			wantExit, wantClass := stagedExpectation(ref, tc.pol, id)
			if res.Exit != wantExit || res.Class != wantClass {
				t.Errorf("tenant %s sample %d: got %v/%d, want %v/%d", tc.tenant, id, res.Exit, res.Class, wantExit, wantClass)
			}
		}
	}

	// An unknown tenant falls back to the default pipeline.
	defRes, err := eng.ClassifyTenantShed(context.Background(), 0, "nobody", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	defPol := branchy.NewPolicy(DefaultGatewayConfig().Threshold, 1)
	wantExit, wantClass := stagedExpectation(ref, defPol, 0)
	if defRes.Exit != wantExit || defRes.Class != wantClass {
		t.Errorf("unknown tenant: got %v/%d, want default-pipeline %v/%d", defRes.Exit, defRes.Class, wantExit, wantClass)
	}

	// Removing a tenant reverts its traffic to the default pipeline.
	eng.RemoveTenant("strict")
	res, err := eng.ClassifyTenantShed(context.Background(), 0, "strict", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != wantExit || res.Class != wantClass {
		t.Errorf("removed tenant: got %v/%d, want default-pipeline %v/%d", res.Exit, res.Class, wantExit, wantClass)
	}

	// Invalid tenant thresholds are rejected at admission time, not at
	// classify time (BuildPipeline always yields a valid shape, so drive
	// Validate through a gateway-level SetTenant with a broken model
	// config is not possible; assert version bump bookkeeping instead).
	v1 := eng.Topology().Version
	v2, err := eng.SetTenant("lenient", TenantConfig{LocalThreshold: 0.5, EdgeThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1+1 {
		t.Errorf("SetTenant version %d after %d, want +1", v2, v1)
	}
}

// TestMembershipChurnUnderConcurrentTraffic joins, removes and
// re-registers devices while concurrent per-sample and batch sessions
// run. It asserts zero session errors, staged parity under every
// observed presence mask, and monotonically sane config versions — the
// bit-identity contract of the versioned topology. Run with -race.
func TestMembershipChurnUnderConcurrentTraffic(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "churn")

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = 1 // local exits: each verdict is fully determined by its observed mask
	gw, err := NewGateway(context.Background(), model, gcfg, tr, addrs, []string{cloudAddr}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Churn slots 1 and 2; the rest stay present so sessions always have
	// summaries.
	churnSlots := []int{1, 2}
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			slot := churnSlots[i%len(churnSlots)]
			if _, err := gw.RemoveDevice(slot); err != nil {
				t.Errorf("churn remove slot %d: %v", slot, err)
				return
			}
			time.Sleep(time.Millisecond)
			if _, err := gw.AdmitDevice(context.Background(), slot, addrs[slot]); err != nil {
				t.Errorf("churn admit slot %d: %v", slot, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	ref := core.NewReference(model, test)
	pol := branchy.NewPolicy(1, 1)
	check := func(res *Result, id int) error {
		for _, d := range []int{0, 3} {
			if d < len(res.Present) && !res.Present[d] {
				return fmt.Errorf("sample %d: stable slot %d missing", id, d)
			}
		}
		if res.ConfigVersion < 1 {
			return fmt.Errorf("sample %d: ConfigVersion = %d", id, res.ConfigVersion)
		}
		wantExit, wantClass := stagedExpectation(ref.For(res.Present, 1), pol, id)
		if res.Exit != wantExit || res.Class != wantClass {
			return fmt.Errorf("sample %d: got %v/%d, staged reference says %v/%d under mask %v",
				id, res.Exit, res.Class, wantExit, wantClass, res.Present)
		}
		return nil
	}

	const (
		workers    = 4
		iterations = 25
		samples    = 10
	)
	errs := make(chan error, workers*2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				id := (w + i) % samples
				res, err := classifyOne(context.Background(), gw, uint64(id))
				if err != nil {
					errs <- fmt.Errorf("worker %d: classify sample %d: %w", w, id, err)
					return
				}
				if err := check(res, id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Batch sessions churn alongside the per-sample ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ids := []uint64{0, 1, 2, 3}
		for i := 0; i < iterations; i++ {
			results, err := gw.Classify(context.Background(), ids, "", ShedNone)
			if err != nil {
				errs <- fmt.Errorf("batch iteration %d: %w", i, err)
				return
			}
			for j, res := range results {
				if err := check(res, int(ids[j])); err != nil {
					errs <- fmt.Errorf("batch iteration %d: %w", i, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	churnWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// No wedged state: the gateway still serves, with the final
	// membership (all slots re-admitted) and the final config version.
	finalV := gw.Topology().Version
	res, err := classifyOne(context.Background(), gw, 0)
	if err != nil {
		t.Fatalf("post-churn classify: %v", err)
	}
	if res.ConfigVersion != finalV {
		t.Errorf("post-churn ConfigVersion = %d, want %d", res.ConfigVersion, finalV)
	}
	for d, p := range res.Present {
		if !p {
			t.Errorf("post-churn slot %d missing", d)
		}
	}
}

// TestChurnWithEscalation interleaves membership changes with sessions
// that escalate to the cloud: between mutations every verdict must stay
// bit-identical to the staged reference under the mask the session
// observed, across config versions.
func TestChurnWithEscalation(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "churnesc")

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = 0.5 // a mix of local exits and cloud escalations
	gw, err := NewGateway(context.Background(), model, gcfg, tr, addrs, []string{cloudAddr}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	ref := core.NewReference(model, test)
	pol := branchy.NewPolicy(0.5, 1)
	verify := func(id int) {
		t.Helper()
		res, err := classifyOne(context.Background(), gw, uint64(id))
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		wantExit, wantClass := stagedExpectation(ref.For(res.Present, 1), pol, id)
		if res.Exit != wantExit || res.Class != wantClass {
			t.Errorf("sample %d: got %v/%d, want %v/%d under mask %v",
				id, res.Exit, res.Class, wantExit, wantClass, res.Present)
		}
	}

	for round := 0; round < 3; round++ {
		slot := 1 + round%2
		if _, err := gw.RemoveDevice(slot); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 6; id++ {
			verify(id)
		}
		if _, err := gw.AdmitDevice(context.Background(), slot, addrs[slot]); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 6; id++ {
			verify(id)
		}
	}
}
