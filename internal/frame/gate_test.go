package frame

import (
	"net"
	"testing"
	"time"
)

// A peer that says hello is admitted; one that stays silent is released by
// Close at once, and nothing is admitted after Close.
func TestGateHelloAdmitClose(t *testing.T) {
	var g Gate
	talker, talkerPeer := net.Pipe()
	defer talker.Close()
	defer talkerPeer.Close()
	go func() { _ = NewWriter(talkerPeer, testMax).Send(7, []byte("hi")) }()
	kind, payload, err := g.Hello(talker, NewReader(talker, testMax), time.Minute)
	if err != nil || kind != 7 || string(payload) != "hi" {
		t.Fatalf("hello: kind=%d payload=%q err=%v", kind, payload, err)
	}
	registered := false
	if !g.Admit(talker, func() { registered = true }) || !registered {
		t.Fatal("open gate refused a finished handshake")
	}

	silent, silentPeer := net.Pipe()
	defer silent.Close()
	defer silentPeer.Close()
	waiting := make(chan error, 1)
	go func() {
		_, _, err := g.Hello(silent, NewReader(silent, testMax), time.Minute)
		waiting <- err
	}()
	// Whether Close finds the Hello parked or the Hello finds the gate
	// closed, it must return without the peer ever speaking.
	g.Close()
	select {
	case err := <-waiting:
		if err == nil {
			t.Fatal("silent peer passed the hello")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a silent peer's Hello waiting")
	}
	if g.Admit(talker, func() { t.Error("registered after Close") }) {
		t.Fatal("closed gate admitted a session")
	}
}
