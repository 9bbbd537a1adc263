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

// redialTimeout bounds the lazy re-dial of a replica whose data
// connection died, so a session never spends its whole deadline waiting
// on connection setup to a dead host.
const redialTimeout = time.Second

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

	mu     sync.Mutex
	lk     *link       // nil until dialed; replaced on re-dial
	revive func(*link) // its links' revive hook: setDown(index, false)
	down   bool        // marked down by the failure detector
}

// ensureLink returns the replica's link, re-dialing the data connection
// first if the current one is missing or broken. Concurrent callers race
// benignly: the loser closes its spare connection.
func (r *replica) ensureLink(ctx context.Context, tr transport.Transport) (*link, error) {
	r.mu.Lock()
	if lk := r.lk; lk != nil && !lk.broken() {
		r.mu.Unlock()
		return lk, nil
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
		return nil, fmt.Errorf("%w: dial %s: %w", errReplicaUnreachable, r.addr, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lk != nil && !r.lk.broken() {
		// Another session re-dialed first; keep theirs.
		conn.Close()
		return r.lk, nil
	}
	r.lk = newLink(conn, r.revive, nil)
	return r.lk, nil
}

// ReplicaPool holds the N replicas of one upstream tier (edge or cloud)
// behind a single escalation endpoint. It load-balances sessions across
// healthy replicas with power-of-two-choices on in-flight count (ties
// broken round-robin), leaves out replicas the owning node's failure
// detector marked down until their next echo re-admits them, and retries
// an in-flight escalation on a different replica when one dies
// mid-session — escalations are idempotent because every retry re-sends
// the full bit-packed feature frames. Sessions never mark health.
type ReplicaPool struct {
	tier   wire.ExitPoint
	tr     transport.Transport
	logger *slog.Logger

	replicas []*replica
	rr       atomic.Uint64 // round-robin tie-breaker
	rng      atomic.Uint64 // splitmix64 state for pick-two sampling
}

// newReplicaPool dials every replica address and returns the pool. All
// initial dials must succeed — a replica that is down at construction
// time is a deployment error, while failures after construction are
// handled by the failure detector and failover.
func newReplicaPool(ctx context.Context, tier wire.ExitPoint, tr transport.Transport, addrs []string, logger *slog.Logger) (*ReplicaPool, error) {
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
	p := &ReplicaPool{tier: tier, tr: tr, logger: logger}
	p.rng.Store(uint64(uintptr(len(addrs))) + 0x9E3779B97F4A7C15)
	for i, addr := range addrs {
		conn, err := tr.Dial(ctx, addr)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("cluster: dial %v replica %d (%s): %w", tier, i, addr, err)
		}
		r := &replica{index: i, addr: addr}
		r.revive = func(*link) { p.setDown(i, false) }
		r.lk = newLink(conn, r.revive, nil)
		p.replicas = append(p.replicas, r)
	}
	return p, nil
}

// Size returns the number of replicas in the pool.
func (p *ReplicaPool) Size() int { return len(p.replicas) }

// Healthy returns the number of replicas currently schedulable: those
// the failure detector has not marked down.
func (p *ReplicaPool) Healthy() int {
	n := 0
	for _, r := range p.replicas {
		r.mu.Lock()
		if !r.down {
			n++
		}
		r.mu.Unlock()
	}
	return n
}

// Down reports whether no replica can serve right now: every replica is
// marked down. Escalations then fail fast with
// ErrNoHealthyReplica instead of waiting out a timeout.
func (p *ReplicaPool) Down() bool { return p.Healthy() == 0 }

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
// broken round-robin. The caller must pair a successful pick with done.
func (p *ReplicaPool) pick(tried uint64) (*replica, error) {
	var buf [64]*replica // newReplicaPool caps the pool at 64
	cands := buf[:0]
	for _, r := range p.replicas {
		if tried&(1<<uint(r.index)) != 0 {
			continue
		}
		r.mu.Lock()
		ok := !r.down
		r.mu.Unlock()
		if ok {
			cands = append(cands, r)
		}
	}
	var chosen *replica
	switch len(cands) {
	case 0:
		return nil, fmt.Errorf("cluster: %v tier: %w", p.tier, ErrNoHealthyReplica)
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
	chosen.inFlight.Add(1)
	return chosen, nil
}

// done releases a picked replica: its in-flight count drops.
func (p *ReplicaPool) done(r *replica) { r.inFlight.Add(-1) }

// setDown records the failure detector's verdict on one replica: down
// takes it out of scheduling, up re-admits it.
func (p *ReplicaPool) setDown(i int, down bool) {
	if i < 0 || i >= len(p.replicas) {
		return
	}
	r := p.replicas[i]
	r.mu.Lock()
	changed := r.down != down
	r.down = down
	r.mu.Unlock()
	if changed {
		if down {
			p.logger.Warn("replica fenced", "tier", p.tier.String(), "replica", i, "addr", r.addr)
		} else {
			p.logger.Info("replica recovered", "tier", p.tier.String(), "replica", i, "addr", r.addr)
		}
	}
}

// beat runs one failure-detector tick (see detector) on every replica. A
// broken link is re-dialed first, so a restarted node is re-admitted by
// its first echo without waiting for traffic; a replica that cannot be
// re-dialed is down.
func (p *ReplicaPool) beat(ctx context.Context, hb *wire.Heartbeat, interval time.Duration, sends *sync.WaitGroup) {
	for _, r := range p.replicas {
		dctx, cancel := context.WithTimeout(ctx, interval)
		l, err := r.ensureLink(dctx, p.tr)
		cancel()
		if err != nil {
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

// relay runs one session's escalation with failover: it sends the frames
// to a scheduled replica and waits for the session's reply, retrying on
// a different replica when one proves unreachable mid-session. Every
// replica is tried at most once per session. Retries are safe because
// frames carry the session's complete bit-packed feature payload — a
// replica that half-processed the session before dying leaves no state
// the retry depends on. Non-replica failures (context cancellation,
// protocol errors from a live replica) are returned immediately. Each
// attempt waits up to timeout, cut short by budget when that is not
// zero: one bound for every attempt together. The round trips run on
// st, and the reply frame is the caller's to release.
func (p *ReplicaPool) relay(ctx context.Context, st *stage, sid uint64, timeout time.Duration, budget time.Time, frames ...wire.Message) (*wire.Frame, error) {
	var tried uint64
	var lastErr error
	for attempt := 0; attempt < len(p.replicas); attempt++ {
		r, err := p.pick(tried)
		if err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last: %w)", err, lastErr)
			}
			return nil, err
		}
		t := timeout
		if !budget.IsZero() {
			if t = min(t, time.Until(budget)); t <= 0 {
				p.done(r)
				return nil, fmt.Errorf("cluster: %w after %v", ErrDeadlineExceeded, timeout)
			}
		}
		f, rerr := p.relayOn(ctx, st, r, sid, t, frames)
		p.done(r)
		if rerr == nil {
			return f, nil
		}
		if !errors.Is(rerr, errReplicaUnreachable) {
			return nil, rerr // session-fatal: context or protocol error
		}
		p.logger.Warn("escalation failed; retrying on another replica",
			"tier", p.tier.String(), "replica", r.index, "session", sid, "err", rerr)
		tried |= 1 << uint(r.index)
		lastErr = rerr
	}
	return nil, fmt.Errorf("all %d %v replicas failed: %w", len(p.replicas), p.tier, lastErr)
}

// relayOn performs one escalation attempt against a single replica,
// re-dialing it first if its connection died.
func (p *ReplicaPool) relayOn(ctx context.Context, st *stage, r *replica, sid uint64, timeout time.Duration, frames []wire.Message) (*wire.Frame, error) {
	lk, err := r.ensureLink(ctx, p.tr)
	if err != nil {
		return nil, err
	}
	st.one, st.oneFrames = [1]*link{lk}, [1][]wire.Message{frames}
	replies, err := st.exchange(ctx, sid, st.one[:], timeout, st.oneFrames[:])
	st.one, st.oneFrames = [1]*link{}, [1][]wire.Message{}
	if err != nil {
		return nil, err
	}
	if err := replies[0].err; err != nil {
		return nil, fmt.Errorf("%w: %w", errReplicaUnreachable, err)
	}
	return replies[0].f, nil
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
