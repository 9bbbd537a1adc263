package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Replica-pool tunables. They are constants rather than config because
// every deployment wants the same behavior: fail over fast, re-probe a
// dead replica occasionally, never flap on a single slow response.
const (
	// replicaCooldown is how long a self-detected-down replica stays
	// fenced before a single trial session may probe it again (half-open
	// circuit breaker). Pools watched by the gateway's heartbeat detector
	// run no trials: a heartbeat echo re-admits instead.
	replicaCooldown = time.Second
	// replicaMaxTimeouts marks a replica down after this many consecutive
	// timed-out escalations. A broken connection marks it down
	// immediately; timeouts get one extra chance because a loaded replica
	// can miss a deadline without being dead.
	replicaMaxTimeouts = 2
	// redialTimeout bounds the lazy re-dial of a replica whose data
	// connection died, so a session never spends its whole deadline
	// waiting on connection setup to a dead host.
	redialTimeout = time.Second
)

// errReplicaUnreachable marks an escalation failure attributable to one
// replica (connection death, missed deadline) rather than to the session
// itself; the failover loop retries such failures on another replica.
var errReplicaUnreachable = errors.New("cluster: replica unreachable")

// replica is one member of a ReplicaPool: a dialable upstream endpoint
// with its own multiplexed link, in-flight counter and health state.
type replica struct {
	index int
	addr  string

	// inFlight counts sessions currently escalated to this replica; the
	// pool's power-of-two-choices scheduler compares these counts.
	inFlight atomic.Int64

	mu       sync.Mutex
	lk       *link       // nil until dialed; replaced on re-dial
	revive   func(*link) // its links' revive hook: reportSuccess
	down     bool
	timeouts int       // consecutive timed-out escalations
	retryAt  time.Time // when a down replica becomes eligible for a trial
	probing  bool      // a trial session is in flight (half-open breaker)
	// fenced takes the replica out of scheduling without marking it
	// unhealthy: a rollout fences one replica at a time to drain and swap
	// its weights. Unlike down, a fenced replica is never eligible for a
	// half-open trial, and failure-detector updates leave the flag alone.
	fenced bool
}

// link returns the replica's current link, or nil when undialed/dead.
func (r *replica) link() *link {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lk != nil && r.lk.broken() {
		return nil
	}
	return r.lk
}

// ensureLink re-dials the replica's data connection if the current one is
// missing or broken. Concurrent callers race benignly: the loser closes
// its spare connection.
func (r *replica) ensureLink(ctx context.Context, tr transport.Transport) error {
	r.mu.Lock()
	if r.lk != nil && !r.lk.broken() {
		r.mu.Unlock()
		return nil
	}
	old := r.lk
	r.lk = nil
	r.mu.Unlock()
	if old != nil {
		old.close()
	}
	dctx, cancel := context.WithTimeout(ctx, redialTimeout)
	conn, err := tr.Dial(dctx, r.addr)
	cancel()
	if err != nil {
		return fmt.Errorf("%w: dial %s: %w", errReplicaUnreachable, r.addr, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lk != nil && !r.lk.broken() {
		// Another session re-dialed first; keep theirs.
		conn.Close()
		return nil
	}
	r.lk = newLink(conn, r.revive)
	return nil
}

// ReplicaPool holds the N replicas of one upstream tier (edge or cloud)
// behind a single escalation endpoint. It load-balances sessions across
// healthy replicas with power-of-two-choices on in-flight count (ties
// broken round-robin), fences replicas that stop answering (fast-fail),
// re-admits them via heartbeat echoes or half-open trial sessions, and
// retries an in-flight escalation on a different replica when one
// dies mid-session — escalations are idempotent because every retry
// re-sends the full bit-packed feature frames.
type ReplicaPool struct {
	tier   wire.ExitPoint
	tr     transport.Transport
	logger *slog.Logger

	replicas []*replica
	rr       atomic.Uint64 // round-robin tie-breaker
	rng      atomic.Uint64 // splitmix64 state for pick-two sampling

	// trials enables half-open trial sessions to down replicas. It is
	// false when the gateway's heartbeat detector watches the pool, whose
	// echoes re-admit replicas instead.
	trials bool
}

// newReplicaPool dials every replica address and returns the pool. All
// initial dials must succeed — a replica that is down at construction
// time is a deployment error, while failures after construction are
// handled by fencing and failover. trials enables half-open trial
// sessions (see ReplicaPool.trials).
func newReplicaPool(ctx context.Context, tier wire.ExitPoint, tr transport.Transport, addrs []string, trials bool, logger *slog.Logger) (*ReplicaPool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: %v pool needs at least one replica address", tier)
	}
	if len(addrs) > 64 {
		// The failover loop tracks tried replicas in a uint64 bitmask.
		return nil, fmt.Errorf("cluster: %v pool supports at most 64 replicas, got %d", tier, len(addrs))
	}
	if logger == nil {
		logger = slog.Default()
	}
	p := &ReplicaPool{tier: tier, tr: tr, trials: trials, logger: logger}
	p.rng.Store(uint64(uintptr(len(addrs))) + 0x9E3779B97F4A7C15)
	for i, addr := range addrs {
		conn, err := tr.Dial(ctx, addr)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("cluster: dial %v replica %d (%s): %w", tier, i, addr, err)
		}
		r := &replica{index: i, addr: addr}
		r.revive = func(*link) { p.reportSuccess(r) }
		r.lk = newLink(conn, r.revive)
		p.replicas = append(p.replicas, r)
	}
	return p, nil
}

// Size returns the number of replicas in the pool.
func (p *ReplicaPool) Size() int { return len(p.replicas) }

// Addrs returns the replica addresses, in replica order.
func (p *ReplicaPool) Addrs() []string {
	out := make([]string, len(p.replicas))
	for i, r := range p.replicas {
		out[i] = r.addr
	}
	return out
}

// Healthy returns the number of replicas currently schedulable — not
// marked down by failure detection and not fenced by a rollout.
func (p *ReplicaPool) Healthy() int {
	n := 0
	for _, r := range p.replicas {
		r.mu.Lock()
		if !r.down && !r.fenced {
			n++
		}
		r.mu.Unlock()
	}
	return n
}

// Down reports whether no replica can serve right now: every replica is
// fenced and none is eligible for a trial session. Escalations then fail
// fast with ErrNoHealthyReplica instead of waiting out a timeout.
func (p *ReplicaPool) Down() bool {
	now := time.Now()
	for _, r := range p.replicas {
		r.mu.Lock()
		ok := !r.fenced && (!r.down || (p.trials && !r.probing && now.After(r.retryAt)))
		r.mu.Unlock()
		if ok {
			return false
		}
	}
	return true
}

// splitmix64 advances the pool's sampling state and returns a well-mixed
// 64-bit value; it is lock-free and deterministic per pool.
func (p *ReplicaPool) splitmix64() uint64 {
	z := p.rng.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pick selects the replica for one escalation attempt: power-of-two-
// choices on in-flight count among healthy, untried replicas, ties
// broken round-robin. When every healthy replica has been tried (or none
// is healthy), a fenced replica whose cooldown has passed may take a
// single half-open trial session, if the pool runs trials. The caller
// must pair a successful pick with done, and should report the outcome
// via reportSuccess/reportFailure.
func (p *ReplicaPool) pick(ctx context.Context, tried uint64) (*replica, bool, error) {
	var cands []*replica
	for _, r := range p.replicas {
		if tried&(1<<uint(r.index)) != 0 {
			continue
		}
		r.mu.Lock()
		ok := !r.down && !r.fenced
		r.mu.Unlock()
		if ok {
			cands = append(cands, r)
		}
	}
	var chosen *replica
	trial := false
	switch len(cands) {
	case 0:
		chosen = p.startTrial(tried)
		if chosen == nil {
			return nil, false, fmt.Errorf("cluster: %v tier: %w", p.tier, ErrNoHealthyReplica)
		}
		trial = true
	case 1:
		chosen = cands[0]
	default:
		// Power of two choices: sample two distinct candidates, take the
		// one with fewer in-flight sessions; break ties round-robin.
		x := p.splitmix64()
		i := int(x % uint64(len(cands)))
		j := int((x >> 32) % uint64(len(cands)-1))
		if j >= i {
			j++
		}
		a, b := cands[i], cands[j]
		la, lb := a.inFlight.Load(), b.inFlight.Load()
		switch {
		case la < lb:
			chosen = a
		case lb < la:
			chosen = b
		case p.rr.Add(1)%2 == 0:
			chosen = a
		default:
			chosen = b
		}
	}
	if err := chosen.ensureLink(ctx, p.tr); err != nil {
		p.reportFailure(chosen)
		if trial {
			// Release the half-open claim, or no later session could ever
			// re-probe this replica.
			chosen.mu.Lock()
			chosen.probing = false
			chosen.mu.Unlock()
		}
		return nil, false, err
	}
	chosen.inFlight.Add(1)
	return chosen, trial, nil
}

// startTrial claims one fenced replica past its cooldown for a half-open
// trial session, or nil when the pool runs no trials or no replica is
// eligible.
func (p *ReplicaPool) startTrial(tried uint64) *replica {
	if !p.trials {
		return nil
	}
	now := time.Now()
	for _, r := range p.replicas {
		if tried&(1<<uint(r.index)) != 0 {
			continue
		}
		r.mu.Lock()
		if r.down && !r.fenced && !r.probing && now.After(r.retryAt) {
			r.probing = true
			r.mu.Unlock()
			return r
		}
		r.mu.Unlock()
	}
	return nil
}

// done releases a picked replica: the in-flight count drops and, for
// the session that claimed a half-open trial, the trial claim is
// cleared. Only the trial holder may clear it — a normal session that
// happened to finish on a since-fenced replica must not wipe another
// session's in-flight trial. (The trial verdict itself comes from
// reportSuccess/reportFailure; a session that ends neutrally — e.g.
// canceled — leaves the replica's health state untouched.)
func (p *ReplicaPool) done(r *replica, trial bool) {
	r.inFlight.Add(-1)
	if trial {
		r.mu.Lock()
		r.probing = false
		r.mu.Unlock()
	}
}

// reportSuccess records a completed escalation: the replica's consecutive
// timeout count resets and a fenced replica is re-admitted.
func (p *ReplicaPool) reportSuccess(r *replica) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timeouts = 0
	if r.down {
		r.down = false
		p.logger.Info("replica recovered", "tier", p.tier.String(), "replica", r.index, "addr", r.addr)
	}
}

// reportFailure records a failed escalation attempt. A broken connection
// fences the replica immediately; a timeout fences it after
// replicaMaxTimeouts consecutive misses (a loaded replica can miss one
// deadline without being dead). Fencing starts the cooldown clock for
// half-open trials.
func (p *ReplicaPool) reportFailure(r *replica) {
	dead := false
	if lk := r.link(); lk == nil {
		dead = true // connection is gone, not merely slow
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timeouts++
	if !r.down && (dead || r.timeouts >= replicaMaxTimeouts) {
		r.down = true
		p.logger.Warn("replica fenced", "tier", p.tier.String(), "replica", r.index, "addr", r.addr, "dead_link", dead, "timeouts", r.timeouts)
	}
	if r.down {
		r.retryAt = time.Now().Add(replicaCooldown)
	}
}

// setDown flips one replica's availability from outside the session
// path. Marking down fences the replica and starts its cooldown; marking
// up re-admits it immediately.
func (p *ReplicaPool) setDown(i int, down bool) {
	if i < 0 || i >= len(p.replicas) {
		return
	}
	r := p.replicas[i]
	r.mu.Lock()
	changed := r.down != down
	r.down = down
	r.timeouts = 0
	if down && changed {
		r.retryAt = time.Now().Add(replicaCooldown)
	}
	r.mu.Unlock()
	if changed {
		if down {
			p.logger.Warn("replica fenced", "tier", p.tier.String(), "replica", i, "addr", r.addr)
		} else {
			p.logger.Info("replica recovered", "tier", p.tier.String(), "replica", i, "addr", r.addr)
		}
	}
}

// beat runs one tick of the gateway's failure detector (Gateway.detect)
// on every replica. A broken link is re-dialed first, so a restarted node
// is re-admitted by its first echo without waiting for traffic; a replica
// that cannot be re-dialed is down.
func (p *ReplicaPool) beat(ctx context.Context, hb *wire.Heartbeat, interval time.Duration, sends *sync.WaitGroup) {
	for _, r := range p.replicas {
		dctx, cancel := context.WithTimeout(ctx, interval)
		err := r.ensureLink(dctx, p.tr)
		cancel()
		l := r.link()
		if err != nil || l == nil {
			p.setDown(r.index, true)
			continue
		}
		l.beat(hb, interval, sends, func(dead bool) bool {
			if dead {
				p.setDown(r.index, true)
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.down
		})
	}
}

// setFenced flips one replica's rollout fence: a fenced replica takes no
// new sessions (and no half-open trials) until unfenced, while its
// failure-detection state — down, timeouts, cooldown — is untouched, so
// fencing and unfencing never masks a genuinely dead replica.
func (p *ReplicaPool) setFenced(i int, fenced bool) {
	if i < 0 || i >= len(p.replicas) {
		return
	}
	r := p.replicas[i]
	r.mu.Lock()
	r.fenced = fenced
	r.mu.Unlock()
}

// relay runs one session's escalation with failover: it sends the frames
// to a scheduled replica and waits for the session's reply, retrying on
// a different replica when one proves unreachable mid-session. Retries
// are safe because frames carry the session's complete bit-packed
// feature payload — a replica that half-processed the session before
// dying leaves no state the retry depends on. Non-replica failures
// (context cancellation, protocol errors from a live replica) are
// returned immediately.
func (p *ReplicaPool) relay(ctx context.Context, sid uint64, timeout time.Duration, frames ...wire.Message) (wire.Message, error) {
	var tried uint64
	var lastErr error
	for attempt := 0; attempt < len(p.replicas); attempt++ {
		r, trial, err := p.pick(ctx, tried)
		if err != nil {
			if errors.Is(err, errReplicaUnreachable) {
				// The chosen replica could not even be re-dialed; pick
				// already fenced it, so the next iteration tries the rest.
				lastErr = err
				continue
			}
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last: %w)", err, lastErr)
			}
			return nil, err
		}
		msg, rerr := p.relayOn(ctx, r, sid, timeout, frames)
		p.done(r, trial)
		if rerr == nil {
			p.reportSuccess(r)
			return msg, nil
		}
		if !errors.Is(rerr, errReplicaUnreachable) {
			return nil, rerr // session-fatal: context or protocol error
		}
		p.reportFailure(r)
		p.logger.Warn("escalation failed; retrying on another replica",
			"tier", p.tier.String(), "replica", r.index, "session", sid, "err", rerr)
		tried |= 1 << uint(r.index)
		lastErr = rerr
	}
	return nil, fmt.Errorf("all %d %v replicas failed: %w", len(p.replicas), p.tier, lastErr)
}

// relayOn performs one escalation attempt against a single replica.
func (p *ReplicaPool) relayOn(ctx context.Context, r *replica, sid uint64, timeout time.Duration, frames []wire.Message) (wire.Message, error) {
	lk := r.link()
	if lk == nil {
		return nil, fmt.Errorf("%w: connection lost", errReplicaUnreachable)
	}
	ch, err := lk.subscribe(sid)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errReplicaUnreachable, err)
	}
	defer lk.unsubscribe(sid)
	if err := lk.send(timeout, frames...); err != nil {
		return nil, fmt.Errorf("%w: relay frames: %w", errReplicaUnreachable, err)
	}
	msg, err := lk.wait(ctx, ch, timeout)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, ctxErr(cerr)
		}
		return nil, fmt.Errorf("%w: %w", errReplicaUnreachable, err)
	}
	return msg, nil
}

// close tears down every replica connection.
func (p *ReplicaPool) close() {
	for _, r := range p.replicas {
		r.mu.Lock()
		lk := r.lk
		r.lk = nil
		r.mu.Unlock()
		if lk != nil {
			lk.close()
		}
	}
}
