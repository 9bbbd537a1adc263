package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestMemDialAndListen(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("gateway")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if string(buf) != "hello" {
			t.Errorf("got %q, want hello", buf)
		}
		if _, err := conn.Write([]byte("world")); err != nil {
			t.Errorf("write: %v", err)
		}
	}()

	c, err := m.Dial(context.Background(), "gateway")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Errorf("got %q, want world", buf)
	}
	wg.Wait()
}

func TestMemDialUnknownAddress(t *testing.T) {
	if _, err := NewMem().Dial(context.Background(), "nowhere"); err == nil {
		t.Error("Dial to unregistered address succeeded")
	}
}

func TestMemDialHonorsContext(t *testing.T) {
	m := NewMem()
	if _, err := m.Listen("full"); err != nil {
		t.Fatal(err)
	}
	// Saturate the listener's accept queue so Dial must block, then
	// cancel: the dial has to fail with the context error, not hang.
	ctx, cancel := context.WithCancel(context.Background())
	saturated := false
	for i := 0; i < 64 && !saturated; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := m.Dial(ctx, "full")
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("dial %d failed before saturation: %v", i, err)
			}
		case <-time.After(50 * time.Millisecond):
			saturated = true
		}
	}
	if !saturated {
		t.Skip("accept queue never filled; cannot exercise blocking dial")
	}
	cancel()
	// The blocked dial goroutine exits via ctx; give it a moment.
	time.Sleep(20 * time.Millisecond)
	if _, err := m.Dial(ctx, "full"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled dial err = %v, want context.Canceled", err)
	}
}

func TestMemDuplicateListen(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := m.Listen("a"); err == nil {
		t.Error("duplicate Listen succeeded")
	}
}

func TestMemListenerCloseUnblocksAccept(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Accept after Close = %v, want net.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock after Close")
	}
}

func TestMemAddressReusableAfterClose(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := m.Listen("a")
	if err != nil {
		t.Fatalf("re-Listen after Close: %v", err)
	}
	l2.Close()
}

func TestTCPLoopback(t *testing.T) {
	tr := TCP{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(conn, conn) // echo
	}()

	c, err := tr.Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("ping")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Errorf("echo = %q, want ping", buf)
	}
}

func TestLinkProfileSerializeTime(t *testing.T) {
	tests := []struct {
		name string
		p    LinkProfile
		n    int
		want time.Duration
	}{
		{"unlimited bandwidth", LinkProfile{Latency: 10 * time.Millisecond}, 1 << 20, 0},
		{"bandwidth only", LinkProfile{BandwidthBps: 1000}, 500, 500 * time.Millisecond},
		{"latency excluded", LinkProfile{Latency: time.Millisecond, BandwidthBps: 1 << 20}, 1 << 20, time.Second},
		{"zero bytes", LinkProfile{Latency: time.Millisecond, BandwidthBps: 1000}, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.SerializeTime(tt.n); got != tt.want {
				t.Errorf("SerializeTime(%d) = %v, want %v", tt.n, got, tt.want)
			}
		})
	}
}

func TestSimulateDelaysDelivery(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	arrived := make(chan time.Time, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1)
		if _, err := io.ReadFull(conn, buf); err == nil {
			arrived <- time.Now()
		}
	}()
	raw, err := m.Dial(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	sim := Simulate(raw, LinkProfile{Latency: 30 * time.Millisecond})
	defer sim.Close()
	start := time.Now()
	if _, err := sim.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// Propagation happens in flight: the sender returns quickly, the
	// receiver sees the byte only after the link latency.
	if sendTime := time.Since(start); sendTime > 25*time.Millisecond {
		t.Errorf("sender blocked %v; propagation must not occupy the sender", sendTime)
	}
	select {
	case at := <-arrived:
		if elapsed := at.Sub(start); elapsed < 30*time.Millisecond {
			t.Errorf("delivered after %v, want ≥ 30ms", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("byte never delivered")
	}
}

func TestSimulateOverlapsPropagation(t *testing.T) {
	// Two back-to-back writes share the link: with in-flight propagation
	// both must arrive in ~one latency, not two.
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan time.Time, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 2)
		if _, err := io.ReadFull(conn, buf); err == nil {
			done <- time.Now()
		}
	}()
	raw, err := m.Dial(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	sim := Simulate(raw, LinkProfile{Latency: 50 * time.Millisecond})
	defer sim.Close()
	start := time.Now()
	if _, err := sim.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-done:
		if elapsed := at.Sub(start); elapsed > 90*time.Millisecond {
			t.Errorf("two frames took %v, want ~50ms (in-flight overlap), not 100ms", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frames never delivered")
	}
}

func TestSimulateQueuesBackToBackFrames(t *testing.T) {
	// Ten 20-byte frames at 1000 B/s occupy the wire 20ms each. The
	// writes book them on the virtual clock and return at once; frame k
	// reaches the peer no earlier than k serialization times plus the
	// latency after the first write, and in order.
	const (
		frames  = 10
		size    = 20
		ser     = 20 * time.Millisecond
		latency = 30 * time.Millisecond
	)
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type arrival struct {
		seq byte
		at  time.Time
	}
	arrivals := make(chan arrival, frames)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, size)
		for i := 0; i < frames; i++ {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			arrivals <- arrival{buf[0], time.Now()}
		}
	}()
	raw, err := m.Dial(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	sim := Simulate(raw, LinkProfile{Latency: latency, BandwidthBps: size * int64(time.Second/ser)})
	defer sim.Close()
	start := time.Now()
	for k := 1; k <= frames; k++ {
		frame := make([]byte, size)
		frame[0] = byte(k)
		if _, err := sim.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed >= ser {
		t.Errorf("%d writes took %v; a write must not wait for serialization (%v per frame)", frames, elapsed, ser)
	}
	for k := 1; k <= frames; k++ {
		select {
		case a := <-arrivals:
			if a.seq != byte(k) {
				t.Fatalf("arrival %d carried frame %d", k, a.seq)
			}
			if want := time.Duration(k)*ser + latency; a.at.Sub(start) < want {
				t.Errorf("frame %d arrived after %v, want ≥ %v", k, a.at.Sub(start), want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("frame %d never delivered", k)
		}
	}
}

func TestSimulateConcurrentWritersKeepFrames(t *testing.T) {
	// Writers share the link and reuse their buffer as soon as Write
	// returns, while pooled copies are recycled behind them: every frame
	// must still arrive whole, and each writer's frames in order.
	const writers, perWriter = 4, 50
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	readErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			readErr <- err
			return
		}
		defer conn.Close()
		next := make([]int, writers)
		hdr := make([]byte, 3) // length, writer, sequence
		for i := 0; i < writers*perWriter; i++ {
			if _, err := io.ReadFull(conn, hdr); err != nil {
				readErr <- err
				return
			}
			body := make([]byte, hdr[0])
			if _, err := io.ReadFull(conn, body); err != nil {
				readErr <- err
				return
			}
			w, seq := int(hdr[1]), int(hdr[2])
			if seq != next[w] {
				readErr <- fmt.Errorf("writer %d: frame %d arrived, want %d", w, seq, next[w])
				return
			}
			next[w]++
			for _, b := range body {
				if b != byte(w*perWriter+seq) {
					readErr <- fmt.Errorf("writer %d frame %d: body byte %d, want %d", w, seq, b, w*perWriter+seq)
					return
				}
			}
		}
		readErr <- nil
	}()
	raw, err := m.Dial(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	sim := Simulate(raw, LinkProfile{Latency: time.Millisecond, BandwidthBps: 1 << 20})
	defer sim.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 3+writers*perWriter)
			for seq := 0; seq < perWriter; seq++ {
				n := 1 + (w*perWriter+seq)%97
				frame := buf[:3+n]
				frame[0], frame[1], frame[2] = byte(n), byte(w), byte(seq)
				for i := range frame[3:] {
					frame[3+i] = byte(w*perWriter + seq)
				}
				if _, err := sim.Write(frame); err != nil {
					t.Error(err)
					return
				}
				for i := range buf {
					buf[i] = 0xFF // the link must have taken a copy
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-readErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frames never delivered")
	}
}

// deadlineBlind hides deadlines from the connection it wraps, so only the
// simulator's own wait can end at one.
type deadlineBlind struct{ net.Conn }

func (deadlineBlind) SetDeadline(time.Time) error      { return nil }
func (deadlineBlind) SetWriteDeadline(time.Time) error { return nil }

// stalledSim returns a simulated link whose peer accepts and never reads,
// and a function that closes the peer's end.
func stalledSim(t *testing.T, wrap func(net.Conn) net.Conn) (net.Conn, func()) {
	t.Helper()
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	raw, err := m.Dial(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	return Simulate(wrap(raw), LinkProfile{}), func() { peer.Close() }
}

// writeUntilError writes frames until one fails and reports that error.
func writeUntilError(c net.Conn, setDeadline bool) <-chan error {
	failed := make(chan error, 1)
	go func() {
		for {
			if setDeadline {
				// The pattern of the cluster's link.send: a deadline
				// around each write, cleared after it.
				c.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
			}
			_, err := c.Write([]byte("frame"))
			if setDeadline {
				c.SetWriteDeadline(time.Time{})
			}
			if err != nil {
				failed <- err
				return
			}
		}
	}()
	return failed
}

func TestSimulateWriteEndsAtDeadline(t *testing.T) {
	// The peer never reads and the inner connection ignores deadlines, so
	// the delivery loop blocks for good and the queue fills. The write
	// that finds it full must fail at its deadline, not hang.
	sim, closePeer := stalledSim(t, func(c net.Conn) net.Conn { return deadlineBlind{c} })
	start := time.Now()
	select {
	case err := <-writeUntilError(sim, true):
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("write err = %v, want os.ErrDeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("write failed after %v, want about the 200ms deadline", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Write hung on a peer that never reads")
	}
	closePeer()
	sim.Close()
}

// writerBlocked reports whether a Write holds the link while its queue is
// full, so that it is committed to waiting for space.
func writerBlocked(c *simConn) bool {
	if len(c.sendCh) < cap(c.sendCh) {
		return false
	}
	if c.wmu.TryLock() {
		c.wmu.Unlock()
		return false
	}
	return true
}

func TestSimulateWriteReturnsDeliveryError(t *testing.T) {
	// No deadline: the queue fills and a write waits for space. When the
	// delivery loop stops on an error, that write and every later one
	// must return the error.
	sim, closePeer := stalledSim(t, func(c net.Conn) net.Conn { return c })
	defer sim.Close()
	failed := writeUntilError(sim, false)
	c := sim.(*simConn)
	for start := time.Now(); !writerBlocked(c); time.Sleep(time.Millisecond) {
		if time.Since(start) > time.Second {
			t.Fatal("no Write ever waited on a full queue")
		}
	}
	closePeer()
	select {
	case err := <-failed:
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("write err = %v, want the delivery error io.ErrClosedPipe", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Write hung after the delivery loop stopped")
	}
	if _, err := sim.Write([]byte("again")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("later write err = %v, want io.ErrClosedPipe", err)
	}
}

func TestSimulateCloseDeliversInFlight(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err == nil {
			got <- buf
		}
	}()
	raw, err := m.Dial(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	sim := Simulate(raw, LinkProfile{Latency: time.Second})
	if _, err := sim.Write([]byte("frame")); err != nil {
		t.Fatal(err)
	}
	// Once the delivery loop has taken the frame it is waiting out the
	// latency.
	for len(sim.(*simConn).sendCh) > 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := sim.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Errorf("Close took %v with a frame 1s in flight, want < 100ms", elapsed)
	}
	select {
	case b := <-got:
		if string(b) != "frame" {
			t.Errorf("peer got %q, want frame", b)
		}
	case <-time.After(time.Second):
		t.Fatal("in-flight frame lost on Close")
	}
	if _, err := sim.Write([]byte("late")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write after Close err = %v, want net.ErrClosed", err)
	}
}

func TestRouteSimWrapsDials(t *testing.T) {
	mem := NewMem()
	l, err := mem.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	arrived := make(chan time.Time, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1)
		if _, err := io.ReadFull(conn, buf); err == nil {
			arrived <- time.Now()
		}
	}()
	sim := RouteSim{Inner: mem, Pick: func(string) LinkProfile { return LinkProfile{BandwidthBps: 10} }}
	c, err := sim.Dial(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	// 1 byte at 10 B/s occupies the link for 100ms: the write returns at
	// once and the byte arrives when the link has carried it.
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 50*time.Millisecond {
		t.Errorf("dialed conn wrote in %v; the writer must not wait out the 100ms serialization", elapsed)
	}
	select {
	case at := <-arrived:
		if elapsed := at.Sub(start); elapsed < 100*time.Millisecond {
			t.Errorf("byte arrived after %v, want ≥ 100ms serialization", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("byte never delivered")
	}
	// Listeners pass through unchanged.
	if _, err := sim.Listen("b"); err != nil {
		t.Errorf("Listen through RouteSim: %v", err)
	}
}

func TestRouteSimDialError(t *testing.T) {
	sim := RouteSim{Inner: NewMem(), Pick: func(string) LinkProfile { return LinkProfile{} }}
	if _, err := sim.Dial(context.Background(), "missing"); err == nil {
		t.Error("Dial to missing address succeeded")
	}
}

func TestCountingConn(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 3)
		io.ReadFull(conn, buf)
		conn.Write([]byte("abcde"))
	}()
	raw, err := m.Dial(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	cc := NewCountingConn(raw)
	if _, err := cc.Write([]byte("xyz")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(cc, buf); err != nil {
		t.Fatal(err)
	}
	if got := cc.BytesWritten(); got != 3 {
		t.Errorf("BytesWritten = %d, want 3", got)
	}
	if got := cc.BytesRead(); got != 5 {
		t.Errorf("BytesRead = %d, want 5", got)
	}
}
