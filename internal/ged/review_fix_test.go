package ged

import (
	"net"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/frame"
)

// fakeServer completes the hello handshake, reads n more frames without
// ever acknowledging them, then closes the socket — a server that dies
// with contributions in flight.
func fakeServer(t *testing.T, n int) string {
	t.Helper()
	srv := &frame.Server{MaxFrame: maxFrame, HelloTimeout: helloTimeout, Wake: func(conn net.Conn) { conn.Close() }}
	srv.Serve = func(conn net.Conn, fr *frame.Reader, kind uint8, _ []byte) {
		if frameKind(kind) != frHello || !srv.Admit(conn) {
			return
		}
		_ = frame.NewWriter(conn, maxFrame).Send(uint8(frHelloAck), encodeHelloAck(0))
		for i := 0; i < n; i++ {
			if _, _, err := fr.Read(); err != nil {
				return
			}
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr.String()
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
