package ged

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/frame"
)

// Options configures a Server beyond its detector.
type Options struct {
	// Det is the global event graph (nil creates a fresh detector with
	// AutoFlush off, as global events span application transactions).
	Det *detector.Detector
	// LogDir enables the durable contribution log in that directory.
	// Empty disables durability; stream subscriptions then fail.
	LogDir string
	// LogSegmentBytes bounds one log segment file (0 = 8 MiB).
	LogSegmentBytes int64
	// LogSync fsyncs every contribute batch before it is acknowledged
	// (at-least-once survives server crashes, at fsync cost per batch).
	LogSync bool
	// SendQueue bounds each connection's outbound frame queue (0 = 256).
	// A full queue sheds live notifies (counted, never blocking the
	// detector); acks and stream deliveries instead exert backpressure.
	SendQueue int
	// DrainTimeout bounds how long Close waits for each connection's
	// queued frames to reach the socket (0 = 2s).
	DrainTimeout time.Duration
	// Partition/Partitions name this instance's slot in a partitioned
	// deployment (0/1 = standalone). Reported to clients in the hello
	// handshake; DialCluster routes by PartitionOf over the same space.
	Partition  int
	Partitions int
}

// Server is the global event detector daemon: a framed binary event bus
// over TCP. Global composite events are defined on its Detector (directly
// or through the snoop compiler) before or while applications contribute.
type Server struct {
	Det  *detector.Detector
	opts Options
	log  *EventLog
	met  *serverMetrics

	gate frame.Gate // hello handshake of accepted connections

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*serverConn]struct{}
	closing bool
	closeCh chan struct{} // closed when Close begins; wakes pumps

	readers sync.WaitGroup
	streams atomic.Int64
}

// NewServer creates a GED over the given detector (nil creates a fresh
// one) with default options and no durable log.
func NewServer(det *detector.Detector) *Server {
	s, err := NewServerOptions(Options{Det: det})
	if err != nil {
		panic(err) // unreachable without LogDir
	}
	return s
}

// NewServerOptions creates a GED server. It opens (or recovers) the
// durable log when LogDir is set.
func NewServerOptions(opts Options) (*Server, error) {
	det := opts.Det
	if det == nil {
		det = detector.New()
		det.App = "ged"
		// Global events routinely span transactions of different
		// applications; the GED never flushes implicitly.
		det.AutoFlush = false
	}
	if opts.SendQueue <= 0 {
		opts.SendQueue = 256
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 2 * time.Second
	}
	if opts.Partitions <= 0 {
		opts.Partitions = 1
	}
	if opts.Partition < 0 || opts.Partition >= opts.Partitions {
		return nil, fmt.Errorf("ged: partition %d out of range 0..%d", opts.Partition, opts.Partitions-1)
	}
	s := &Server{
		Det:     det,
		opts:    opts,
		met:     newServerMetrics(),
		conns:   make(map[*serverConn]struct{}),
		closeCh: make(chan struct{}),
	}
	if opts.LogDir != "" {
		log, err := OpenEventLog(opts.LogDir, opts.LogSegmentBytes, opts.LogSync)
		if err != nil {
			return nil, err
		}
		s.log = log
	}
	return s, nil
}

// Log exposes the durable contribution log (nil without LogDir).
func (s *Server) Log() *EventLog { return s.log }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ged: listen: %w", err)
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("ged: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.readers.Add(1)
		go func() {
			defer s.readers.Done()
			s.handle(conn)
		}()
	}
}

// outFrame is one queued outbound frame. A zero kind is the shutdown
// sentinel: the writer sends a goodbye, flushes, and exits.
type outFrame struct {
	kind    frameKind
	payload []byte
	enq     time.Time
}

type serverConn struct {
	srv  *Server
	app  string
	conn net.Conn

	out   chan outFrame
	dying chan struct{} // closed when the connection starts shutting down
	wdone chan struct{} // closed when the writer has drained and exited
	dead  atomic.Bool   // no further enqueues accepted

	mu      sync.Mutex
	unsubs  []func()
	stopped sync.Once
}

// enqueue queues a frame. Shedable frames (live notifies) are dropped
// when the queue is full — the detector callback must never block — and
// the drop is reported to the caller. Non-shedable frames (acks, stream
// deliveries, errors) block until there is room or the connection dies,
// which is what backpressures a too-fast replay pump.
func (c *serverConn) enqueue(kind frameKind, payload []byte, shedable bool) bool {
	if c.dead.Load() {
		return false
	}
	f := outFrame{kind: kind, payload: payload, enq: time.Now()}
	if shedable {
		select {
		case c.out <- f:
			return true
		default:
			return false
		}
	}
	select {
	case c.out <- f:
		return true
	case <-c.dying:
		return false
	case <-c.srv.closeCh:
		return false
	}
}

// writeLoop is the connection's single writer: it drains the queue into
// the framed writer, flushing at queue-empty boundaries so pipelined
// frames share syscalls. On the shutdown sentinel it sends a goodbye,
// flushes, and exits; on a socket error it keeps consuming (discarding)
// so enqueuers never block on a dead connection.
func (c *serverConn) writeLoop() {
	defer close(c.wdone)
	fw := frame.NewWriter(c.conn, maxFrame)
	broken := false
	for f := range c.out {
		if f.kind == 0 {
			if !broken {
				_ = fw.Send(uint8(frGoodbye), nil)
			}
			return
		}
		if broken {
			continue
		}
		c.srv.met.queueWait.ObserveDuration(time.Since(f.enq))
		if err := fw.Write(uint8(f.kind), f.payload); err != nil {
			broken = true
			continue
		}
		if len(c.out) == 0 {
			if err := fw.Flush(); err != nil {
				broken = true
			}
		}
	}
}

// shutdown tears the connection down exactly once: new enqueues stop,
// pumps and blocked enqueuers wake, the writer drains what is already
// queued (bounded by DrainTimeout), and only then does the socket close.
func (c *serverConn) shutdown() {
	c.stopped.Do(func() {
		c.mu.Lock()
		unsubs := c.unsubs
		c.unsubs = nil
		c.mu.Unlock()
		for _, u := range unsubs {
			u()
		}
		close(c.dying)
		c.dead.Store(true)
		// A writer stuck on a dead peer's full socket buffer would stall
		// the drain forever; the write deadline bounds it to DrainTimeout.
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.srv.opts.DrainTimeout))
		// Sentinel after the dead flag: frames enqueued before the flag
		// are drained, everything after is refused.
		c.out <- outFrame{}
		select {
		case <-c.wdone:
		case <-time.After(c.srv.opts.DrainTimeout):
		}
		c.conn.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	})
}

// protoError reports a protocol violation to the peer and tears the
// connection down (the error frame rides the drain).
func (c *serverConn) protoError(err error) {
	c.srv.met.protoErrors.Inc()
	c.enqueue(frError, encodeError(err.Error()), false)
	c.shutdown()
}

func (s *Server) handle(conn net.Conn) {
	fr := frame.NewReader(conn, maxFrame)
	kind, payload, err := s.gate.Hello(conn, fr, helloTimeout)
	if err != nil || frameKind(kind) != frHello {
		conn.Close()
		return
	}
	app, err := decodeHello(payload)
	if err != nil {
		// Pre-handshake: answer inline, no writer goroutine yet.
		_ = frame.NewWriter(conn, maxFrame).Send(uint8(frError), encodeError(err.Error()))
		s.met.protoErrors.Inc()
		conn.Close()
		return
	}
	c := &serverConn{
		srv:   s,
		app:   app,
		conn:  conn,
		out:   make(chan outFrame, s.opts.SendQueue),
		dying: make(chan struct{}),
		wdone: make(chan struct{}),
	}
	if !s.gate.Admit(conn, func() {
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
	}) {
		conn.Close()
		return
	}
	s.met.connects.Inc()
	go c.writeLoop()
	defer c.shutdown()

	logEnd := uint64(0)
	if s.log != nil {
		logEnd = s.log.End()
	}
	c.enqueue(frHelloAck, encodeHelloAck(s.opts.Partition, s.opts.Partitions, logEnd), false)

	var batch []event.Occurrence
	for {
		k, payload, err := fr.Read()
		if err != nil {
			if errors.Is(err, frame.ErrTooLarge) {
				c.protoError(err)
			}
			return
		}
		switch kind := frameKind(k); kind {
		case frContribute:
			t0 := time.Now()
			seq, occs, derr := decodeContribute(payload, batch[:0])
			if derr != nil {
				c.protoError(derr)
				return
			}
			batch = occs
			s.met.contribBatch.Inc()
			s.met.contribOccs.Add(uint64(len(occs)))
			offset := uint64(0)
			if len(occs) > 0 {
				for i := range occs {
					occs[i].App = c.app
					occs[i].Kind = event.KindExplicit
					occs[i].Constituents = nil
				}
				if s.log != nil {
					la := time.Now()
					first, aerr := s.log.Append(occs)
					if errors.Is(aerr, errLogClosed) {
						// Server draining: the batch was never logged, so
						// neither ack it (the offset would be a lie) nor
						// inject it (live subscribers would see records
						// stream subscribers never will). The client keeps
						// it in flight and sees the connection close.
						return
					}
					if aerr != nil {
						c.protoError(fmt.Errorf("ged: log append: %w", aerr))
						return
					}
					s.met.logAppends.Inc()
					s.met.logAppend.ObserveDuration(time.Since(la))
					offset = first + uint64(len(occs))
				}
				s.contributeBatch(occs)
			} else if s.log != nil {
				offset = s.log.End()
			}
			s.met.dispatch.ObserveDuration(time.Since(t0))
			if seq != 0 {
				if c.enqueue(frContributeAck, encodeContributeAck(seq, offset), false) {
					s.met.acksSent.Inc()
				}
			}
		case frSubscribe:
			id, eventName, ctx, mode, from, derr := decodeSubscribe(payload)
			if derr != nil {
				c.protoError(derr)
				return
			}
			switch mode {
			case subLive:
				s.subscribeLive(c, id, eventName, detector.Context(ctx))
			case subStream:
				if s.log == nil {
					c.protoError(errors.New("ged: stream subscription on a server without a durable log"))
					return
				}
				s.streams.Add(1)
				go s.streamPump(c, id, eventName, from)
			default:
				c.protoError(protoErrf("unknown subscription mode %d", mode))
				return
			}
			logEnd := uint64(0)
			if s.log != nil {
				logEnd = s.log.End()
			}
			c.enqueue(frSubscribeAck, encodeSubscribeAck(id, logEnd), false)
		case frGoodbye:
			return // polite client shutdown
		default:
			c.protoError(protoErrf("unexpected %v frame", kind))
			return
		}
	}
}

// contributeBatch fans a batch of remote occurrences into the global
// event graph under a single graph-lock acquisition (SignalBatch),
// defining unknown explicit events first so applications do not need to
// pre-declare their contributions. Occurrences the detector rejects are
// dropped individually, matching the old one-at-a-time tolerance.
func (s *Server) contributeBatch(occs []event.Occurrence) {
	for i := range occs {
		if _, err := s.Det.Lookup(occs[i].Name); err != nil {
			_, _ = s.Det.DefineExplicit(occs[i].Name)
		}
	}
	for len(occs) > 0 {
		done, err := s.Det.SignalBatch(occs)
		if err == nil {
			return
		}
		// Skip the occurrence the detector rejected and continue.
		occs = occs[done+1:]
	}
}

// subscribeLive forwards detections of the named event to the client
// through its bounded send queue. The callback runs inside the detector,
// so a full queue sheds the notify (counted) rather than blocking event
// propagation; at-least-once consumers use stream subscriptions instead.
func (s *Server) subscribeLive(c *serverConn, id uint32, eventName string, ctx detector.Context) {
	if _, err := s.Det.Lookup(eventName); err != nil {
		if _, derr := s.Det.DefineExplicit(eventName); derr != nil {
			return
		}
	}
	unsub, err := s.Det.Subscribe(eventName, ctx, detector.SubscriberFunc(
		func(occ *event.Occurrence, dctx detector.Context) {
			payload, eerr := encodeNotify(nil, id, int(dctx), occ)
			if eerr != nil {
				return
			}
			if c.enqueue(frNotify, payload, true) {
				s.met.notifySent.Inc()
			} else {
				s.met.notifyShed.Inc()
			}
		}))
	if err != nil {
		return
	}
	c.mu.Lock()
	c.unsubs = append(c.unsubs, unsub)
	c.mu.Unlock()
}

// streamPump replays the contribution log to one stream subscription:
// records in [from, end) first, then the live tail as appends land. The
// pump reads at the subscriber's pace — a slow consumer blocks here, on
// its own connection's queue, never in the detector or other clients.
// Name "*" matches every record.
func (s *Server) streamPump(c *serverConn, id uint32, eventName string, from uint64) {
	defer s.streams.Add(-1)
	r := s.log.ReaderAt(from)
	defer r.Close()
	var buf []byte
	for {
		select {
		case <-c.dying:
			return
		case <-s.closeCh:
			return
		default:
		}
		occ, off, err := r.Next()
		if err != nil {
			return // log closed (server shutdown) or unreadable cursor
		}
		if eventName != "*" && occ.Name != eventName {
			continue
		}
		payload, eerr := encodeStream(buf, id, off, occ)
		if eerr != nil {
			continue
		}
		buf = nil // payload ownership moves to the queue
		if !c.enqueue(frStream, payload, false) {
			return
		}
		s.met.streamSent.Inc()
	}
}

// Close stops accepting, unblocks readers and replay pumps, drains each
// connection's queued frames (bounded by DrainTimeout per connection),
// sends a goodbye, and closes the durable log. It is idempotent.
func (s *Server) Close() error {
	s.gate.Close() // silent peers stop waiting; no connection registers from here on
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	// Unblock every reader: a read deadline in the past fails the pending
	// Read, the reader goroutine runs its shutdown (unsubscribe, drain,
	// goodbye, close) and exits. The gate is shut, so no handshake can
	// complete now and lift a deadline set here.
	for _, c := range conns {
		_ = c.conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	close(s.closeCh)
	if ln != nil {
		ln.Close()
	}
	if s.log != nil {
		_ = s.log.Close() // wakes pumps blocked at the tail
	}
	s.readers.Wait()
	// Readers own their shutdown.
	for _, c := range conns {
		c.shutdown()
	}
	return nil
}
