package frame

import (
	"net"
	"testing"
	"time"
)

// A peer that says hello is admitted; one that stays silent is released by
// Close at once, Close wakes the admitted session, and nothing is admitted
// after Close.
func TestGateHelloAdmitClose(t *testing.T) {
	admitted := make(chan net.Conn, 1)
	s := &Server{MaxFrame: testMax, HelloTimeout: time.Minute}
	s.Serve = func(conn net.Conn, fr *Reader, kind uint8, hello []byte) {
		if kind != 7 || string(hello) != "hi" || !s.Admit(conn) {
			t.Errorf("hello kind=%d payload=%q not admitted", kind, hello)
			return
		}
		admitted <- conn
		for {
			if _, _, err := fr.Read(); err != nil {
				return
			}
		}
	}
	s.Wake = func(conn net.Conn) { _ = conn.SetReadDeadline(time.Now()) }
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	talker, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer talker.Close()
	if err := NewWriter(talker, testMax).Send(7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	var session net.Conn
	select {
	case session = <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("a finished handshake was never admitted")
	}

	silent, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Whether Close finds the silent peer parked in its hello or the
	// accept loop finds the gate shut, Close returns without it speaking.
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a silent peer or an admitted session waiting")
	}
	if s.Admit(session) {
		t.Fatal("closed server admitted a session")
	}
	if _, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen after Close succeeded")
	}
}
