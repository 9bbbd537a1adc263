package chaos

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
)

// faultTransport wraps a transport with runtime-switchable link faults,
// keyed by the listener address of the node whose links are faulted:
// partitioning an address silently discards every frame written to or
// from that node (the connections stay open, exactly like a network
// partition), and degrading it delays each write. Whole Writes are
// dropped, never split — wire.Encode emits one Write per frame, so a
// partition loses frames but never desynchronizes the stream framing.
type faultTransport struct {
	inner transport.Transport

	mu    sync.Mutex
	cut   map[string]bool
	delay map[string]time.Duration
}

func newFaultTransport(inner transport.Transport) *faultTransport {
	return &faultTransport{
		inner: inner,
		cut:   make(map[string]bool),
		delay: make(map[string]time.Duration),
	}
}

// Partition switches frame blackholing for every link of addr.
func (t *faultTransport) Partition(addr string, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if on {
		t.cut[addr] = true
	} else {
		delete(t.cut, addr)
	}
}

// Degrade delays every write on addr's links by d; 0 clears the fault.
func (t *faultTransport) Degrade(addr string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d > 0 {
		t.delay[addr] = d
	} else {
		delete(t.delay, addr)
	}
}

// Heal clears every partition and degradation at once.
func (t *faultTransport) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cut = make(map[string]bool)
	t.delay = make(map[string]time.Duration)
}

func (t *faultTransport) state(addr string) (cut bool, delay time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cut[addr], t.delay[addr]
}

func (t *faultTransport) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{Listener: l, addr: addr, ft: t}, nil
}

func (t *faultTransport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := t.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, addr: addr, ft: t}, nil
}

// faultListener wraps accepted connections so the faulted node's own
// writes are subject to its address's faults too — a partition cuts
// both directions of every link touching the node.
type faultListener struct {
	net.Listener
	addr string
	ft   *faultTransport
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, addr: l.addr, ft: l.ft}, nil
}

type faultConn struct {
	net.Conn
	addr string
	ft   *faultTransport
}

func (c *faultConn) Write(b []byte) (int, error) {
	cut, delay := c.ft.state(c.addr)
	if delay > 0 {
		time.Sleep(delay)
	}
	if cut {
		// Swallow the frame: the peer sees silence, not a closed link.
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// sleepCtx sleeps for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// jitter returns a duration uniform in [min, max).
func jitter(rng *rand.Rand, min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	return min + time.Duration(rng.Int63n(int64(max-min)))
}

// deviceKiller flips random devices into silent failure (SetFailed) and
// back — the sensor process wedged, its link still open.
func (h *Harness) deviceKiller(ctx context.Context, rng *rand.Rand) {
	devices := h.eng.Devices()
	for ctx.Err() == nil {
		d := rng.Intn(len(devices))
		devices[d].SetFailed(true)
		h.report.countFault("device-kill")
		sleepCtx(ctx, jitter(rng, 40*time.Millisecond, 250*time.Millisecond))
		devices[d].SetFailed(false)
		sleepCtx(ctx, jitter(rng, 20*time.Millisecond, 150*time.Millisecond))
	}
	// Leave every device healthy for the heal phase.
	for _, d := range devices {
		d.SetFailed(false)
	}
}

// deviceChurner removes and re-admits device slots through the
// versioned-membership plane — true leave/join cycles, not silent
// failures: the slot's link closes, the topology config version bumps,
// sessions in flight complete under the membership snapshot they
// observed, and new sessions fan out to the new membership. At most one
// slot is absent at a time (the actor re-admits before moving on), so
// churn composes with the device killer without starving sessions of
// summaries.
func (h *Harness) deviceChurner(ctx context.Context, rng *rand.Rand) {
	slots := h.model.Cfg.Devices
	for ctx.Err() == nil {
		d := rng.Intn(slots)
		if _, err := h.eng.RemoveDevice(d); err != nil {
			return // gateway closing
		}
		h.report.countFault("device-leave")
		sleepCtx(ctx, jitter(rng, 40*time.Millisecond, 250*time.Millisecond))
		actx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := h.eng.AdmitDevice(actx, d)
		cancel()
		if err == nil {
			h.report.countFault("device-join")
		}
		sleepCtx(ctx, jitter(rng, 20*time.Millisecond, 150*time.Millisecond))
	}
	// Leave full membership behind for the heal phase (it re-checks, but
	// an admit here shortens recovery). Occupied slots are left alone —
	// re-admitting one would needlessly cut its live link.
	for d, present := range h.eng.Topology().Present {
		if present {
			continue
		}
		actx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = h.eng.AdmitDevice(actx, d)
		cancel()
	}
}

// replicaKiller alternates between silently failing an upper-tier
// replica for a while and hard-restarting one (listener and links die,
// a fresh node reclaims the address). A single actor owns every replica
// fault so kills never overlap restarts of the same node.
func (h *Harness) replicaKiller(ctx context.Context, rng *rand.Rand) {
	edges := h.cfg.EdgeReplicas
	if !h.model.Cfg.UseEdge {
		edges = 0
	}
	clouds := h.cfg.CloudReplicas
	for ctx.Err() == nil {
		useEdge := edges > 0 && rng.Intn(2) == 0
		switch {
		case rng.Intn(3) != 0: // silent failure, then recover
			if useEdge {
				i := rng.Intn(edges)
				h.eng.Edges()[i].SetFailed(true)
				h.report.countFault("edge-fail")
				sleepCtx(ctx, jitter(rng, 80*time.Millisecond, 350*time.Millisecond))
				// The node may have been restarted meanwhile; unfailing the
				// current holder of the address is always safe.
				h.eng.Edges()[i].SetFailed(false)
			} else {
				i := rng.Intn(clouds)
				h.eng.Clouds()[i].SetFailed(true)
				h.report.countFault("cloud-fail")
				sleepCtx(ctx, jitter(rng, 80*time.Millisecond, 350*time.Millisecond))
				h.eng.Clouds()[i].SetFailed(false)
			}
		case useEdge:
			if err := h.eng.RestartEdge(rng.Intn(edges)); err == nil {
				h.report.countFault("edge-restart")
			}
		default:
			if err := h.eng.RestartCloud(rng.Intn(clouds)); err == nil {
				h.report.countFault("cloud-restart")
			}
		}
		sleepCtx(ctx, jitter(rng, 50*time.Millisecond, 300*time.Millisecond))
	}
}

// linkFaulter partitions and degrades random node addresses.
func (h *Harness) linkFaulter(ctx context.Context, rng *rand.Rand) {
	addrs := h.faultAddrs
	for ctx.Err() == nil {
		addr := addrs[rng.Intn(len(addrs))]
		if rng.Intn(3) == 0 {
			h.ft.Degrade(addr, jitter(rng, 2*time.Millisecond, 25*time.Millisecond))
			h.report.countFault("degrade")
			sleepCtx(ctx, jitter(rng, 50*time.Millisecond, 250*time.Millisecond))
			h.ft.Degrade(addr, 0)
		} else {
			h.ft.Partition(addr, true)
			h.report.countFault("partition")
			sleepCtx(ctx, jitter(rng, 50*time.Millisecond, 300*time.Millisecond))
			h.ft.Partition(addr, false)
		}
		sleepCtx(ctx, jitter(rng, 20*time.Millisecond, 150*time.Millisecond))
	}
	h.ft.Heal()
}

// healthFlapper flaps the liveness (SetFailed) of devices and upstream
// replicas, some for less than the heartbeat detector's window of two
// 50 ms intervals and some for longer, so the detector marks links down
// and echoes re-admit them while sessions run over the same links.
func (h *Harness) healthFlapper(ctx context.Context, rng *rand.Rand) {
	devices := h.eng.Devices()
	for ctx.Err() == nil {
		down := jitter(rng, 10*time.Millisecond, 60*time.Millisecond)
		if rng.Intn(2) == 0 {
			down = jitter(rng, 150*time.Millisecond, 300*time.Millisecond)
		}
		fault, setFailed := "device-flap", devices[rng.Intn(len(devices))].SetFailed
		if rng.Intn(3) == 0 {
			// Re-read the slot when unfailing: the replica killer may have
			// restarted the node meanwhile.
			fault = "replica-flap"
			if h.model.Cfg.UseEdge {
				i := rng.Intn(h.cfg.EdgeReplicas)
				setFailed = func(f bool) { h.eng.Edges()[i].SetFailed(f) }
			} else {
				i := rng.Intn(h.cfg.CloudReplicas)
				setFailed = func(f bool) { h.eng.Clouds()[i].SetFailed(f) }
			}
		}
		setFailed(true)
		h.report.countFault(fault)
		sleepCtx(ctx, down)
		setFailed(false)
		sleepCtx(ctx, jitter(rng, 50*time.Millisecond, 250*time.Millisecond))
	}
}

// frameCorrupter dials nodes directly — never touching the cluster's
// own session links — and writes corrupt, truncated or fuzz-corpus
// frames at them, asserting nothing ever takes a node down for good.
func (h *Harness) frameCorrupter(ctx context.Context, rng *rand.Rand) {
	frames := h.corpus
	addrs := h.faultAddrs
	for ctx.Err() == nil {
		addr := addrs[rng.Intn(len(addrs))]
		dctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
		conn, err := h.ft.Dial(dctx, addr)
		cancel()
		if err == nil {
			frame := frames[rng.Intn(len(frames))]
			if rng.Intn(2) == 0 {
				frame = mutateFrame(rng, frame)
			}
			_ = conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
			_, _ = conn.Write(frame)
			conn.Close()
			h.report.countFault("corrupt-frame")
		}
		sleepCtx(ctx, jitter(rng, 10*time.Millisecond, 80*time.Millisecond))
	}
}

// modelRoller drives the model lifecycle admin plane under live
// traffic: registering pre-generated versioned artifacts (and
// deliberately corrupt ones, which must bounce off the integrity
// checks), rolling the fleet across versions, and rolling out to the
// registered NaN-weights artifact, which the canary must refuse. That
// refusal is the actor's first goal in every run, whatever the seed: it
// retries the NaN rollout at a fixed pace (drawing nothing from rng, so
// the seeded schedule after it is unchanged) until the canary has
// refused it once, then draws its random mix, which repeats it now and
// then. Traffic keeps flowing the whole time; the verifier holds every
// answer to the reference weights of the version it pinned.
func (h *Harness) modelRoller(ctx context.Context, rng *rand.Rand) {
	for ctx.Err() == nil && !h.opNaNRollout(ctx) {
		sleepCtx(ctx, 50*time.Millisecond)
	}
	for ctx.Err() == nil {
		switch rng.Intn(10) {
		case 0:
			h.opCorruptRegister(ctx, rng)
		case 1, 2, 3:
			h.opRegisterModel(ctx, rng)
		case 4:
			h.opRolloutUnknown(ctx, rng)
		case 5:
			h.opNaNRollout(ctx)
		default:
			h.opRollout(ctx, rng)
		}
		sleepCtx(ctx, jitter(rng, 30*time.Millisecond, 200*time.Millisecond))
	}
}

// adminDo sends one admin-plane request and checks the status against
// the expected set. ok is false on a client-side transport error —
// under chaos that is a failed operation, never a violation.
func (h *Harness) adminDo(ctx context.Context, method, path, contentType string, body []byte, src string, expected ...int) (int, []byte, bool) {
	resp, err := h.do(ctx, method, path, contentType, body, chaosAdminToken)
	if err != nil {
		return 0, nil, false
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	h.verifier.CheckStatus(src, resp.StatusCode, expected...)
	return resp.StatusCode, data, true
}

// opRegisterModel uploads a pre-generated artifact: 201 on first
// registration, 409 on every re-upload of the same version.
func (h *Harness) opRegisterModel(ctx context.Context, rng *rand.Rand) {
	art := h.artifacts[rng.Intn(len(h.artifacts))]
	_, _, ok := h.adminDo(ctx, http.MethodPost, "/v1/admin/models", "application/octet-stream", art.data,
		"model register", http.StatusCreated, http.StatusConflict)
	if ok {
		h.report.countFault("model-register")
	}
}

// opCorruptRegister uploads an artifact with its last byte flipped —
// a tensor CRC failure — which must answer 400 without touching the
// registry.
func (h *Harness) opCorruptRegister(ctx context.Context, rng *rand.Rand) {
	art := h.artifacts[rng.Intn(len(h.artifacts))]
	bad := append([]byte(nil), art.data...)
	bad[len(bad)-1] ^= 0xFF
	_, _, ok := h.adminDo(ctx, http.MethodPost, "/v1/admin/models", "application/octet-stream", bad,
		"corrupt model upload", http.StatusBadRequest)
	if ok {
		h.report.countFault("model-corrupt-upload")
	}
}

// opRolloutUnknown asks for a version nobody registered: 404 (or 409
// while a canceled earlier rollout is still finishing server-side).
func (h *Harness) opRolloutUnknown(ctx context.Context, rng *rand.Rand) {
	body, _ := json.Marshal(map[string]uint64{"version": 100 + uint64(rng.Intn(100))})
	_, _, ok := h.adminDo(ctx, http.MethodPost, "/v1/admin/rollout", "application/json", body,
		"unknown rollout", http.StatusNotFound, http.StatusConflict)
	if ok {
		h.report.countFault("model-rollout-unknown")
	}
}

// inventory fetches the admin plane's registered-version listing.
func (h *Harness) inventory(ctx context.Context) (versions []uint64, active uint64, ok bool) {
	code, data, ok := h.adminDo(ctx, http.MethodGet, "/v1/admin/models", "", nil, "admin inventory", http.StatusOK)
	if !ok || code != http.StatusOK {
		return nil, 0, false
	}
	var inv struct {
		Versions      []uint64 `json:"versions"`
		ActiveVersion uint64   `json:"active_version"`
	}
	if err := json.Unmarshal(data, &inv); err != nil {
		h.report.violate("admin inventory: malformed 200 body: %v", err)
		return nil, 0, false
	}
	return inv.Versions, inv.ActiveVersion, true
}

// opRollout rolls the fleet to a random registered version with good
// weights. 200 covers both a completed rollout and a no-op onto the
// active version; 409 is a collision with a still-finishing one. The
// canary refuses only bad weights, so restarts and partitions cannot
// make a good version's rollout fail.
func (h *Harness) opRollout(ctx context.Context, rng *rand.Rand) {
	versions, _, ok := h.inventory(ctx)
	if !ok {
		return
	}
	versions = slices.DeleteFunc(versions, func(v uint64) bool { return v == h.nanArtifact.version })
	if len(versions) == 0 {
		return
	}
	v := versions[rng.Intn(len(versions))]
	body, _ := json.Marshal(map[string]uint64{"version": v})
	code, _, ok := h.adminDo(ctx, http.MethodPost, "/v1/admin/rollout", "application/json", body,
		"model rollout", http.StatusOK, http.StatusConflict)
	if ok && code == http.StatusOK {
		h.report.countFault("model-rollout")
	}
}

// opNaNRollout registers the artifact whose cloud exit holds a NaN
// weight (201, or 409 once registered) and rolls out to it: the canary
// must refuse it (422) and the active version must not move. The
// verifier holds every answer to a good version's reference, so an
// answer pinned to the NaN version is a violation too. It reports
// whether the canary refused the rollout.
func (h *Harness) opNaNRollout(ctx context.Context) bool {
	if _, _, ok := h.adminDo(ctx, http.MethodPost, "/v1/admin/models", "application/octet-stream", h.nanArtifact.data,
		"NaN-weights register", http.StatusCreated, http.StatusConflict); !ok {
		return false
	}
	_, before, ok := h.inventory(ctx)
	if !ok {
		return false
	}
	body, _ := json.Marshal(map[string]uint64{"version": h.nanArtifact.version})
	code, _, ok := h.adminDo(ctx, http.MethodPost, "/v1/admin/rollout", "application/json", body,
		"NaN-weights rollout", http.StatusUnprocessableEntity, http.StatusConflict)
	if !ok || code != http.StatusUnprocessableEntity {
		return false
	}
	h.report.countFault("model-rollout-refused")
	if _, after, ok := h.inventory(ctx); ok && after != before {
		h.report.violate("refused rollout of version %d moved the active version from %d to %d", h.nanArtifact.version, before, after)
	}
	return true
}
