package frame

import (
	"errors"
	"maps"
	"net"
	"sync"
	"time"
)

// Server is the accept side both framed protocols share. It owns the
// listener and its accept loop, gives every accepted peer a bounded time
// to send its first frame (the hello gate), hands that frame to the
// protocol's Serve, and tracks the sessions Serve admits so Close can wake
// them. An idle peer that never speaks (a health probe, a port scan)
// therefore pins a goroutine for at most HelloTimeout, and never holds up
// Close.
//
// Set the exported fields before Listen; do not change them afterwards.
type Server struct {
	// MaxFrame bounds every frame read from an accepted connection.
	MaxFrame int
	// HelloTimeout bounds how long an accepted peer may take to send its
	// first frame.
	HelloTimeout time.Duration
	// Serve runs one connection once its first frame has arrived, reading
	// on through fr. It calls Admit before the session proper starts; the
	// connection is closed when Serve returns.
	Serve func(conn net.Conn, fr *Reader, kind uint8, hello []byte)
	// Wake makes an admitted session's Serve return soon. Close calls it
	// once per session admitted before Close began; the session may be
	// ending on its own at the same time.
	Wake func(conn net.Conn)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool // accepted and not yet served out; true once admitted
	closed bool
	wg     sync.WaitGroup // the accept loop and every connection's Serve
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. A server listens once: a second Listen, or a
// Listen after Close, fails.
func (s *Server) Listen(addr string) (net.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("frame: server closed")
	}
	if s.ln != nil {
		return nil, errors.New("frame: server already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.conns = make(map[net.Conn]bool)
	// Counted before it starts, under the lock Close takes first, so
	// Close's Wait always sees it.
	s.wg.Add(1)
	go s.accept(ln)
	return ln.Addr(), nil
}

func (s *Server) accept(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = false
		// Armed under the lock while the gate is open, so it cannot
		// overwrite the expiry Close sets after shutting the gate.
		_ = conn.SetReadDeadline(time.Now().Add(s.HelloTimeout))
		s.wg.Add(1)
		s.mu.Unlock()
		go s.run(conn)
	}
}

func (s *Server) run(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	fr := NewReader(conn, s.MaxFrame)
	kind, hello, err := fr.Read()
	if err != nil {
		return
	}
	s.Serve(conn, fr, kind, hello)
}

// Admit ends conn's handshake: unless Close has begun, it lifts the hello
// deadline and records conn as a session Close will wake. A false return
// means the server is closing and Serve should return.
func (s *Server) Admit(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	_ = conn.SetReadDeadline(time.Time{})
	s.conns[conn] = true
	return true
}

// Close shuts the hello gate (no later Admit succeeds), closes the
// listener, wakes every admitted session through Wake and every peer
// still in its hello, and waits for the accept loop and every Serve to
// return. It is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	var conns map[net.Conn]bool
	if !s.closed {
		s.closed = true
		if s.ln != nil {
			s.ln.Close()
		}
		conns = maps.Clone(s.conns)
	}
	s.mu.Unlock()
	// Outside the lock: with the gate shut no deadline is armed or lifted
	// any more, so these expiries stand.
	for conn, admitted := range conns {
		if admitted {
			s.Wake(conn)
		} else {
			_ = conn.SetReadDeadline(time.Now())
		}
	}
	s.wg.Wait()
}
