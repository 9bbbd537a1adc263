package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// poolFixture builds a pool over n echo listeners: a relayed frame comes
// straight back, so it answers its own session. kill(i) takes replica i
// down for good: its listener closes and so do its connections.
func poolFixture(t *testing.T, n int) (pool *ReplicaPool, kill func(i int)) {
	t.Helper()
	tr := transport.NewMem()
	addrs := make([]string, n)
	kills := make([]func(), n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("pool-node-%d", i)
		l, err := tr.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var conns []net.Conn
		killed := false
		kills[i] = func() {
			l.Close()
			mu.Lock()
			defer mu.Unlock()
			killed = true
			for _, c := range conns {
				c.Close()
			}
		}
		t.Cleanup(kills[i])
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				if killed { // accepted just before the kill
					mu.Unlock()
					c.Close()
					return
				}
				conns = append(conns, c)
				mu.Unlock()
				go io.Copy(c, c)
			}
		}()
	}
	pool, err := newReplicaPool(context.Background(), wire.ExitCloud, tr, addrs, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.close)
	return pool, func(i int) { kills[i]() }
}

func TestPoolPickSpreadsLoad(t *testing.T) {
	pool, _ := poolFixture(t, 4)

	// Instantaneous sessions: every replica must get a meaningful share.
	counts := make([]int, pool.Size())
	for i := 0; i < 400; i++ {
		r, err := pool.pick(0)
		if err != nil {
			t.Fatal(err)
		}
		counts[r.index]++
		pool.done(r)
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
		r, err := pool.pick(0)
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
		pool.done(r)
	}
}

func TestPoolAvoidsLoadedReplica(t *testing.T) {
	pool, _ := poolFixture(t, 3)
	pool.replicas[0].inFlight.Add(100)
	defer pool.replicas[0].inFlight.Add(-100)
	for i := 0; i < 100; i++ {
		r, err := pool.pick(0)
		if err != nil {
			t.Fatal(err)
		}
		if r.index == 0 {
			t.Fatalf("pick %d chose the replica with 100 in-flight sessions over idle ones", i)
		}
		pool.done(r)
	}
}

func TestPoolSkipsFencedReplica(t *testing.T) {
	pool, _ := poolFixture(t, 3)
	pool.setDown(1, true)
	if got := pool.Healthy(); got != 2 {
		t.Fatalf("Healthy() = %d after fencing one of three replicas, want 2", got)
	}
	for i := 0; i < 60; i++ {
		r, err := pool.pick(0)
		if err != nil {
			t.Fatal(err)
		}
		if r.index == 1 {
			t.Fatal("pick chose the fenced replica")
		}
		pool.done(r)
	}
	pool.setDown(1, false)
	if got := pool.Healthy(); got != 3 {
		t.Fatalf("Healthy() = %d after re-admitting, want 3", got)
	}
}

func TestPoolAllDownTypedError(t *testing.T) {
	pool, _ := poolFixture(t, 2)
	pool.setDown(0, true)
	pool.setDown(1, true)
	if !pool.Down() {
		t.Fatal("Down() = false with every replica fenced")
	}
	if _, err := pool.pick(0); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("pick with all replicas fenced: err = %v, want ErrNoHealthyReplica", err)
	}
	if _, err := pool.relay(context.Background(), new(stage), 1, time.Second, time.Time{}, &wire.Heartbeat{}); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("relay with all replicas fenced: err = %v, want ErrNoHealthyReplica", err)
	}
}

// TestPoolRelaySkipsUndialableReplica: a replica whose connection died
// and whose listener is gone fails its re-dial inside the attempt, which
// marks it tried, so the session's next attempt goes to the live replica.
// No failure detector runs here, so nothing else keeps the dead replica
// from being picked again: every session must still answer on its first
// relay.
func TestPoolRelaySkipsUndialableReplica(t *testing.T) {
	pool, kill := poolFixture(t, 2)
	kill(0)
	for i := 0; i < 50; i++ {
		sid := uint64(i + 1)
		f, err := pool.relay(context.Background(), new(stage), sid, time.Second, time.Time{}, &wire.Error{Session: sid, Code: 200})
		if err != nil {
			t.Fatalf("relay %d: %v", i, err)
		}
		if e, ok := f.Msg.(*wire.Error); !ok || e.Session != sid {
			t.Fatalf("relay %d answered %+v, want the echo of session %d", i, f.Msg, sid)
		}
		f.Release()
	}
	if got := pool.replicas[1].inFlight.Load() + pool.replicas[0].inFlight.Load(); got != 0 {
		t.Errorf("%d sessions still counted in flight after every relay returned", got)
	}
}

// TestPoolBeatMarksUndialableReplicaDown: one detector tick on a replica
// whose connection died and whose listener is gone fails the re-dial and
// marks it down at once, without waiting out two silent intervals. The
// live replica answers each heartbeat and stays up tick after tick, and
// sessions then schedule on it alone.
func TestPoolBeatMarksUndialableReplicaDown(t *testing.T) {
	pool, kill := poolFixture(t, 2)
	kill(0)
	dead := pool.replicas[0]
	if !waitFor(3*time.Second, func() bool {
		dead.mu.Lock()
		defer dead.mu.Unlock()
		return dead.lk == nil || dead.lk.broken()
	}) {
		t.Fatal("replica 0's link never saw its connection close")
	}

	isDown := func(i int) bool {
		r := pool.replicas[i]
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.down
	}
	const interval = 20 * time.Millisecond
	hb := &wire.Heartbeat{NodeID: "gateway"}
	for tick := 1; tick <= 5; tick++ {
		hb.Seq++
		var sends sync.WaitGroup
		pool.beat(context.Background(), hb, interval, &sends)
		sends.Wait()
		if got := pool.Healthy(); got != 1 || !isDown(0) || isDown(1) {
			t.Fatalf("after tick %d: Healthy() = %d, replica 0 down %v, replica 1 down %v; want only replica 0 down",
				tick, got, isDown(0), isDown(1))
		}
		time.Sleep(interval) // the live replica's echo lands before the next tick
	}

	for i := 0; i < 20; i++ {
		r, err := pool.pick(0)
		if err != nil {
			t.Fatal(err)
		}
		pool.done(r)
		if r.index != 1 {
			t.Fatalf("pick %d chose replica %d, which the detector marked down", i, r.index)
		}
	}
}
