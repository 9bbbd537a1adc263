package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// poolFixture builds a pool over n accept-and-discard listeners; the
// scheduling tests never exchange frames, they only exercise pick/done
// and the health state machine.
func poolFixture(t *testing.T, n int) *ReplicaPool {
	t.Helper()
	tr := transport.NewMem()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("pool-node-%d", i)
		l, err := tr.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				go io.Copy(io.Discard, c)
			}
		}()
	}
	pool, err := newReplicaPool(context.Background(), wire.ExitCloud, tr, addrs, true, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.close)
	return pool
}

func TestPoolPickSpreadsLoad(t *testing.T) {
	pool := poolFixture(t, 4)
	ctx := context.Background()

	// Instantaneous sessions: every replica must get a meaningful share.
	counts := make([]int, pool.Size())
	for i := 0; i < 400; i++ {
		r, trial, err := pool.pick(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[r.index]++
		pool.done(r, trial)
	}
	for i, c := range counts {
		if c < 40 { // fair share is 100; power-of-two stays well above 40
			t.Errorf("replica %d got %d of 400 picks; distribution %v too skewed", i, c, counts)
		}
	}

	// Held sessions: power-of-two-choices on in-flight count must keep
	// the imbalance tiny (classic balls-into-bins with two choices).
	var held []*replica
	for i := 0; i < 200; i++ {
		r, _, err := pool.pick(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, r)
	}
	min, max := int64(1<<62), int64(-1)
	for _, r := range pool.replicas {
		n := r.inFlight.Load()
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 8 {
		t.Errorf("held-session imbalance %d (min %d, max %d); pick-two must keep replicas level", max-min, min, max)
	}
	for _, r := range held {
		pool.done(r, false)
	}
}

func TestPoolAvoidsLoadedReplica(t *testing.T) {
	pool := poolFixture(t, 3)
	pool.replicas[0].inFlight.Add(100)
	defer pool.replicas[0].inFlight.Add(-100)
	for i := 0; i < 100; i++ {
		r, trial, err := pool.pick(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.index == 0 {
			t.Fatalf("pick %d chose the replica with 100 in-flight sessions over idle ones", i)
		}
		pool.done(r, trial)
	}
}

func TestPoolSkipsFencedReplica(t *testing.T) {
	pool := poolFixture(t, 3)
	pool.setDown(1, true)
	if got := pool.Healthy(); got != 2 {
		t.Fatalf("Healthy() = %d after fencing one of three replicas, want 2", got)
	}
	for i := 0; i < 60; i++ {
		r, trial, err := pool.pick(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.index == 1 {
			t.Fatal("pick chose the fenced replica")
		}
		pool.done(r, trial)
	}
	pool.setDown(1, false)
	if got := pool.Healthy(); got != 3 {
		t.Fatalf("Healthy() = %d after re-admitting, want 3", got)
	}
}

func TestPoolAllDownTypedError(t *testing.T) {
	pool := poolFixture(t, 2)
	pool.setDown(0, true)
	pool.setDown(1, true)
	if !pool.Down() {
		t.Fatal("Down() = false with every replica fenced")
	}
	if _, _, err := pool.pick(context.Background(), 0); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("pick with all replicas fenced: err = %v, want ErrNoHealthyReplica", err)
	}
	if _, err := pool.relay(context.Background(), 1, time.Second, &wire.Heartbeat{}); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("relay with all replicas fenced: err = %v, want ErrNoHealthyReplica", err)
	}
}

func TestPoolTrialSessionAfterCooldown(t *testing.T) {
	pool := poolFixture(t, 2)
	pool.setDown(0, true)
	pool.setDown(1, true)

	// Inside the cooldown no replica may serve.
	if !pool.Down() {
		t.Fatal("Down() = false inside the cooldown window")
	}
	if _, _, err := pool.pick(context.Background(), 0); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("pick inside cooldown: err = %v, want ErrNoHealthyReplica", err)
	}

	// Expire replica 0's cooldown: exactly one trial session may probe it.
	r0 := pool.replicas[0]
	r0.mu.Lock()
	r0.retryAt = time.Now().Add(-time.Millisecond)
	r0.mu.Unlock()
	trial, isTrial, err := pool.pick(context.Background(), 0)
	if err != nil {
		t.Fatalf("pick after cooldown: %v", err)
	}
	if trial.index != 0 || !isTrial {
		t.Fatalf("trial pick = (replica %d, trial %v), want the cooled-down replica 0 as a trial", trial.index, isTrial)
	}
	// A second concurrent session must not pile onto the trial.
	if _, _, err := pool.pick(context.Background(), 0); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("second pick during trial: err = %v, want ErrNoHealthyReplica", err)
	}
	// A normal session finishing on the fenced replica must not wipe the
	// trial claim (only the trial holder releases it).
	trial.inFlight.Add(1) // as if picked before the fencing
	pool.done(trial, false)
	if _, _, err := pool.pick(context.Background(), 0); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("pick after a non-trial done: err = %v, want ErrNoHealthyReplica (trial claim held)", err)
	}
	// A successful trial re-admits the replica for everyone.
	pool.done(trial, true)
	pool.reportSuccess(trial)
	if pool.Healthy() != 1 {
		t.Fatalf("Healthy() = %d after successful trial, want 1", pool.Healthy())
	}
	if _, _, err := pool.pick(context.Background(), 0); err != nil {
		t.Fatalf("pick after recovery: %v", err)
	}
}

func TestPoolFencesAfterConsecutiveTimeouts(t *testing.T) {
	pool := poolFixture(t, 2)
	r := pool.replicas[0]
	pool.reportFailure(r) // first timeout: still admitted (link is alive)
	if pool.Healthy() != 2 {
		t.Fatalf("Healthy() = %d after one timeout, want 2", pool.Healthy())
	}
	pool.reportFailure(r) // second consecutive timeout: fenced
	if pool.Healthy() != 1 {
		t.Fatalf("Healthy() = %d after %d consecutive timeouts, want 1", pool.Healthy(), replicaMaxTimeouts)
	}
	pool.reportSuccess(r)
	if pool.Healthy() != 2 {
		t.Fatalf("Healthy() = %d after success, want 2", pool.Healthy())
	}
}
