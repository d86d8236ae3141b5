package ged

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/frame"
)

// fakeServer accepts one connection, completes the hello handshake, reads
// n more frames without ever acknowledging them, then closes the socket —
// a server that dies with contributions in flight.
func fakeServer(t *testing.T, n int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := frame.NewReader(conn, maxFrame)
		if kind, _, err := fr.Read(); err != nil || frameKind(kind) != frHello {
			return
		}
		_ = frame.NewWriter(conn, maxFrame).Send(uint8(frHelloAck), encodeHelloAck(0, 1, 0))
		for i := 0; i < n; i++ {
			if _, _, err := fr.Read(); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// Flush must not block forever when the connection died with
// contributions unacked: the receive loop is gone, so nothing will ever
// close a waiter registered after its cleanup ran.
func TestFlushUnblocksAfterConnectionDeath(t *testing.T) {
	addr := fakeServer(t, 1)
	c, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Contribute(&event.Occurrence{Name: "e", Kind: event.KindExplicit}); err != nil {
		t.Fatal(err)
	}
	// Wait for the receive loop to observe the server hanging up.
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("receive loop never exited after server hangup")
	}
	errCh := make(chan error, 1)
	go func() { errCh <- c.Flush() }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Flush reported success for an unacked contribution on a dead connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush blocked forever on a dead connection")
	}
}

// Flush after Close must fail fast, not hang: closeInternals-style
// teardown calls Flush on a connection that may already be closed.
func TestFlushAfterCloseDoesNotHang(t *testing.T) {
	addr := fakeServer(t, 1)
	c, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Contribute(&event.Occurrence{Name: "e", Kind: event.KindExplicit}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- c.Flush() }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Flush reported success for an unacked contribution after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush blocked forever after Close")
	}
}

// A connection that never sends a hello (a health probe, an idle scan)
// must not wedge Server.Close: pre-handshake readers get a deadline too.
func TestServerCloseUnblocksSilentConn(t *testing.T) {
	s, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Give the server time to accept and park in the hello read.
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		_ = s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on a connection that never sent a hello")
	}
}

// Handlers run off the receive goroutine, so a handler may call back into
// the client — here Contribute+Flush, whose ack only the receive loop can
// deliver — without deadlocking.
func TestHandlerMayCallFlush(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	flushed := make(chan error, 1)
	if err := c.Subscribe("e", detector.Recent, func(occ *event.Occurrence, _ detector.Context) {
		if err := c.Contribute(&event.Occurrence{Name: "other", Kind: event.KindExplicit}); err != nil {
			flushed <- err
			return
		}
		flushed <- c.Flush()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Contribute(&event.Occurrence{Name: "e", Kind: event.KindExplicit}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("Flush inside a handler: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush inside a handler deadlocked")
	}
}

// The cluster firehose ("*") streams partition 0, as documented — not
// whatever partition the literal string "*" happens to hash to.
func TestClusterFirehoseStreamsPartitionZero(t *testing.T) {
	_, addr0 := startLogServer(t, Options{})
	_, addr1 := startLogServer(t, Options{})
	cl, err := DialCluster([]string{addr0, addr1}, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Find one event name per partition.
	var name0, name1 string
	for i := 0; name0 == "" || name1 == ""; i++ {
		n := fmt.Sprintf("fh%d", i)
		if PartitionOf(n, 2) == 0 {
			if name0 == "" {
				name0 = n
			}
		} else if name1 == "" {
			name1 = n
		}
	}
	if err := cl.Contribute(&event.Occurrence{Name: name0, Kind: event.KindExplicit}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Contribute(&event.Occurrence{Name: name1, Kind: event.KindExplicit}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 4)
	if _, err := cl.SubscribeFrom("*", 0, func(occ *event.Occurrence, _ uint64) {
		got <- occ.Name
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n != name0 {
			t.Fatalf("firehose delivered %q from partition %d, want %q from partition 0",
				n, PartitionOf(n, 2), name0)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("firehose never delivered partition 0's record")
	}
}
