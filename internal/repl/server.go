package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/storage"
)

const (
	// helloTimeout bounds how long an accepted connection may dawdle
	// before identifying itself.
	helloTimeout = 5 * time.Second
	// shipWriteTimeout bounds one data-frame send. A follower that cannot
	// drain within it is shed — dropped to reconnect and resync later —
	// so a dead or glacial follower never wedges the leader. The leader's
	// commit path does not wait on shipping at all; this bound only
	// protects the shipper goroutine itself.
	shipWriteTimeout = 5 * time.Second
	// tailPollInterval is the idle wait between polls of the flushed log
	// when a session is caught up.
	tailPollInterval = 2 * time.Millisecond
)

// session is one connected follower.
type session struct {
	conn net.Conn
	// acked is the follower's durable LSN — everything below is on its
	// disk, so the leader may prune up to the minimum over sessions.
	// Initialized to the hello resume offset (the follower holds that
	// much already).
	acked       atomic.Uint64
	shippedRecs atomic.Uint64 // records shipped on this session
	ackedRecs   atomic.Uint64 // records the follower reports applied
}

// Server is the leader side: it listens for followers and streams the
// store's flushed WAL to each from its resume offset, sealed segments and
// live tail alike. Each session is fully independent — a slow follower
// delays nobody, least of all the leader's own commits, which never wait
// on shipping. While at least one follower is connected the server holds
// the store's archive-retention floor down to the slowest follower's
// acknowledged LSN, so checkpoint pruning never removes bytes a live
// session still needs.
type Server struct {
	st   *storage.Store
	ln   net.Listener
	gate frame.Gate

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool

	quit chan struct{}
	wg   sync.WaitGroup

	shippedRecs  atomic.Uint64
	shippedBytes atomic.Uint64
	sheds        atomic.Uint64
	refused      atomic.Uint64
}

// NewServer starts a shipping server for st on addr (host:port; ":0"
// picks a free port — see Addr).
func NewServer(st *storage.Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repl: listen %s: %w", addr, err)
	}
	s := &Server{
		st:       st,
		ln:       ln,
		sessions: make(map[*session]struct{}),
		quit:     make(chan struct{}),
	}
	st.SetRetainFloor(s.retainFloor)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MinAck returns the smallest follower-acknowledged durable LSN over the
// connected sessions; ok is false when none are connected.
func (s *Server) MinAck() (uint64, bool) {
	return s.retainFloor()
}

func (s *Server) retainFloor() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	min, any := uint64(0), false
	for sess := range s.sessions {
		if a := sess.acked.Load(); !any || a < min {
			min, any = a, true
		}
	}
	return min, any
}

// Close stops accepting, drops every session, and detaches from the
// store's retention floor. The store itself is left open.
func (s *Server) Close() {
	s.gate.Close() // silent peers stop waiting; no session registers from here on
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.sessions))
	for sess := range s.sessions {
		conns = append(conns, sess.conn)
	}
	s.mu.Unlock()
	close(s.quit)
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	s.st.SetRetainFloor(nil)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// serve runs one follower session: handshake, then ship until the
// connection dies or the server closes.
func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	fr := frame.NewReader(conn, maxFrame)
	fw := frame.NewWriter(conn, maxFrame)

	kind, payload, err := s.gate.Hello(conn, fr, helloTimeout)
	if err != nil || kind != frHello {
		return
	}
	from, err := decodeHello(payload)
	if err != nil {
		return
	}

	start, end := s.st.LogStart(), s.st.LogEnd()
	switch {
	case from > end:
		// The follower holds log bytes this leader never wrote — it
		// diverged (e.g. it followed a promoted ex-follower). Refuse
		// loudly; continuing would interleave two histories.
		s.refused.Add(1)
		_ = fw.Send(frError, encodeError(fmt.Sprintf(
			"follower at lsn %d is ahead of leader log end %d: diverged, rebuild required", from, end)))
		return
	case from < start:
		// The bytes below the resume offset are pruned; the follower
		// must rebuild from a fresh copy (no live-resync path yet).
		s.refused.Add(1)
		_ = fw.Send(frError, encodeError(fmt.Sprintf(
			"resync required: follower at lsn %d, leader log starts at %d", from, start)))
		return
	}
	if err := fw.Send(frHelloAck, encodeHelloAck(start, end)); err != nil {
		return
	}

	sess := &session{conn: conn}
	sess.acked.Store(from)
	if !s.gate.Admit(conn, func() {
		s.mu.Lock()
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
	}) {
		return
	}
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
	}()

	// Ack reader: the follower reports its durable LSN after each applied
	// batch. Its exit (connection dead) is the ship loop's signal too.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			kind, payload, err := fr.Read()
			if err != nil || kind != frAck {
				return
			}
			durable, applied, err := decodeAck(payload)
			if err != nil {
				return
			}
			sess.acked.Store(durable)
			sess.ackedRecs.Store(applied)
		}
	}()

	cur := s.st.LogCursor(from)
	defer cur.Close()
	var ship []byte
	for {
		select {
		case <-s.quit:
			return
		case <-ackDone:
			return
		default:
		}
		base, data, n, err := cur.ReadBatch(maxShipBatch)
		if err != nil {
			if errors.Is(err, storage.ErrWALTruncated) {
				s.refused.Add(1)
				_ = fw.Send(frError, encodeError(
					"resync required: log pruned below cursor"))
			}
			return
		}
		if n == 0 {
			// Caught up with the flushed log. If records sit buffered
			// beyond it (a commit-timestamp record is appended after the
			// group-commit flush), push them out now — otherwise a quiet
			// leader leaves followers one commit behind until the next
			// write forces a flush.
			if s.st.LogEnd() > s.st.LogFlushed() {
				if err := s.st.FlushLog(); err != nil {
					return
				}
				continue
			}
			select {
			case <-s.quit:
				return
			case <-ackDone:
				return
			case <-time.After(tailPollInterval):
			}
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(shipWriteTimeout))
		ship = encodeData(ship, base, n, data)
		if err := fw.Send(frData, ship); err != nil {
			// Shed: the follower can't drain (or the conn died). Drop it;
			// it reconnects and resumes from its own durable offset.
			s.sheds.Add(1)
			return
		}
		sess.shippedRecs.Add(uint64(n))
		s.shippedRecs.Add(uint64(n))
		s.shippedBytes.Add(uint64(len(data)))
	}
}

// maxLagRecords returns the largest shipped-but-unapplied record count
// over the connected sessions.
func (s *Server) maxLagRecords() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max uint64
	for sess := range s.sessions {
		shipped, acked := sess.shippedRecs.Load(), sess.ackedRecs.Load()
		if shipped > acked && shipped-acked > max {
			max = shipped - acked
		}
	}
	return max
}

// Sessions returns the number of connected followers.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// RegisterMetrics exposes the shipping side's counters and the replica
// lag gauge.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sentinel_repl_ship_records_total",
		"WAL records shipped to followers (all sessions).",
		s.shippedRecs.Load)
	r.CounterFunc("sentinel_repl_ship_bytes_total",
		"WAL bytes shipped to followers (framing excluded).",
		s.shippedBytes.Load)
	r.CounterFunc("sentinel_repl_sheds_total",
		"Follower sessions dropped because they could not drain in time.",
		s.sheds.Load)
	r.CounterFunc("sentinel_repl_refused_total",
		"Follower sessions refused at handshake (diverged or resync required).",
		s.refused.Load)
	r.GaugeFunc("sentinel_repl_sessions",
		"Follower sessions currently connected.",
		func() float64 { return float64(s.Sessions()) })
	r.GaugeFunc("sentinel_repl_lag_records",
		"Largest shipped-but-unapplied record count over connected followers.",
		func() float64 { return float64(s.maxLagRecords()) })
}
