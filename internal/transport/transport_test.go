package transport

import (
	"context"
	"errors"
	"io"
	"net"
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

func TestRouteSimWrapsDials(t *testing.T) {
	mem := NewMem()
	l, err := mem.Listen("a")
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
		io.Copy(io.Discard, conn)
	}()
	sim := RouteSim{Inner: mem, Pick: func(string) LinkProfile { return LinkProfile{BandwidthBps: 10} }}
	c, err := sim.Dial(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	// 1 byte at 10 B/s serializes for 100ms on the sender.
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("dialed conn wrote in %v, want ≥ 100ms serialization", elapsed)
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
