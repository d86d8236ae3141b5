package frame

import (
	"net"
	"sync"
	"time"
)

// Gate is the front door both framed servers put their accepted
// connections through: a peer gets a bounded time to send its first frame,
// is tracked while the server waits for it, and becomes a session only if
// the server has not started closing. An idle peer that never speaks (a
// health probe, a port scan) therefore pins a goroutine for at most the
// hello timeout, and never holds up Close.
//
// The zero Gate is open and ready for use.
type Gate struct {
	mu      sync.Mutex
	waiting map[net.Conn]struct{} // accepted, first frame not yet read
	closed  bool
}

// Hello reads conn's first frame through fr, giving the peer timeout to
// send it. While it waits the connection is tracked, so Close can cut the
// wait short. It fails at once on a closed gate. On success the read
// deadline stays armed until Admit lifts it.
func (g *Gate) Hello(conn net.Conn, fr *Reader, timeout time.Duration) (kind uint8, payload []byte, err error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, nil, net.ErrClosed
	}
	if g.waiting == nil {
		g.waiting = make(map[net.Conn]struct{})
	}
	g.waiting[conn] = struct{}{}
	// Armed under the lock: Close expires deadlines under it too, so this
	// cannot overwrite an expiry.
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	g.mu.Unlock()
	kind, payload, err = fr.Read()
	g.mu.Lock()
	delete(g.waiting, conn)
	g.mu.Unlock()
	return kind, payload, err
}

// Admit ends a handshake: unless the gate is closed it lifts conn's read
// deadline and calls register, which enters the session in the server's
// own table. Both happen under the gate's lock, so a session is either
// registered before Close returns — and the server's teardown finds it —
// or refused (false; the caller drops the connection).
func (g *Gate) Admit(conn net.Conn, register func()) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	_ = conn.SetReadDeadline(time.Time{})
	register()
	return true
}

// Close shuts the gate: no later Hello or Admit succeeds, and every Hello
// still waiting for a peer returns now. A server calls it first thing in
// its own Close, before it tears down the sessions already registered.
func (g *Gate) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	for conn := range g.waiting {
		_ = conn.SetReadDeadline(time.Now())
	}
}
