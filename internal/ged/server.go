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
	// (at-least-once survives server crashes, at fsync cost per batch; a
	// batch is the contribute frames one read of the connection buffered).
	LogSync bool
	// SendQueue bounds each connection's outbound frame queue (0 = 256).
	// A full queue sheds live notifies (counted, never blocking the
	// detector); acks and stream deliveries instead exert backpressure.
	SendQueue int
	// DrainTimeout bounds how long Close waits for each connection's
	// queued frames to reach the socket (0 = 2s).
	DrainTimeout time.Duration
}

// Server is the global event detector daemon: a framed binary event bus
// over TCP. Global composite events are defined on its Detector (directly
// or through the snoop compiler) before or while applications contribute.
type Server struct {
	Det  *detector.Detector
	opts Options
	log  *EventLog
	met  *serverMetrics

	edge frame.Server // listener, accept loop, hello gate, session wake-up

	mu    sync.Mutex
	conns map[*serverConn]struct{} // admitted sessions, for the gauges

	closeOnce sync.Once
	closeCh   chan struct{} // closed when Close begins; wakes enqueuers and pumps
	streams   atomic.Int64
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
	s := &Server{
		Det:     det,
		opts:    opts,
		met:     newServerMetrics(),
		conns:   make(map[*serverConn]struct{}),
		closeCh: make(chan struct{}),
	}
	s.edge = frame.Server{
		MaxFrame:     maxFrame,
		HelloTimeout: helloTimeout,
		Serve:        s.handle,
		// An expired read deadline ends the session's reader, which then
		// drains its own send queue (shutdown) before the socket closes.
		Wake: func(conn net.Conn) { _ = conn.SetReadDeadline(time.Now()) },
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
// returns the bound address. A server listens on one address: a second
// Listen, or a Listen after Close, fails.
func (s *Server) Listen(addr string) (string, error) {
	a, err := s.edge.Listen(addr)
	if err != nil {
		return "", fmt.Errorf("ged: listen: %w", err)
	}
	return a.String(), nil
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
// pumps and blocked enqueuers wake, and the writer drains what is already
// queued (bounded by DrainTimeout). The socket closes after it, when
// handle returns.
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

// handle is one connection's session body, run by the frame server once
// the peer's first frame has arrived.
func (s *Server) handle(conn net.Conn, fr *frame.Reader, kind uint8, hello []byte) {
	if frameKind(kind) != frHello {
		return
	}
	app, err := decodeHello(hello)
	if err != nil {
		// Pre-handshake: answer inline, no writer goroutine yet.
		_ = frame.NewWriter(conn, maxFrame).Send(uint8(frError), encodeError(err.Error()))
		s.met.protoErrors.Inc()
		return
	}
	if !s.edge.Admit(conn) {
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
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.met.connects.Inc()
	go c.writeLoop()
	defer c.shutdown()

	logEnd := uint64(0)
	if s.log != nil {
		logEnd = s.log.End()
	}
	c.enqueue(frHelloAck, encodeHelloAck(logEnd), false)

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
			var ok bool
			if batch, ok = s.contribute(c, fr, payload, batch[:0]); !ok {
				return
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

// contribute takes the contribute frame just read, and every further
// whole contribute frame already buffered behind it, as one batch: one
// log append, one SignalBatch and one ack, carrying the batch's highest
// seq (the client reads an ack as covering every lower seq). The read
// buffer bounds the batch, and any other frame ends it, so frames keep
// their order. A frame that does not decode ends the batch too: what
// came before it is still logged, signalled and acked before the
// protocol error closes the connection. batch is reused storage for the
// occurrences; contribute returns it and whether the session goes on.
func (s *Server) contribute(c *serverConn, fr *frame.Reader, payload []byte, batch []event.Occurrence) ([]event.Occurrence, bool) {
	t0 := time.Now()
	var seq uint64
	var derr error
	frames := 0
	for {
		fseq, occs, err := decodeContribute(payload, batch)
		if err != nil {
			derr = err
			break
		}
		batch, seq = occs, max(seq, fseq)
		frames++
		if k, ok := fr.Ready(); !ok || frameKind(k) != frContribute {
			break
		}
		_, payload, _ = fr.Read() // whole in the buffer: cannot fail
	}
	if frames == 0 {
		c.protoError(derr)
		return batch, false
	}
	s.met.contribBatch.Inc()
	s.met.contribOccs.Add(uint64(len(batch)))
	for i := range batch {
		batch[i].App = c.app
		batch[i].Kind = event.KindExplicit
		batch[i].Constituents = nil
	}
	offset := uint64(0)
	if s.log != nil {
		la := time.Now()
		first, err := s.log.Append(batch)
		if errors.Is(err, errLogClosed) {
			// Server draining: the batch was never logged, so neither ack
			// it (the offset would be a lie) nor inject it (live
			// subscribers would see records stream subscribers never
			// will). The client keeps it in flight and sees the
			// connection close.
			return batch, false
		}
		if err != nil {
			c.protoError(fmt.Errorf("ged: log append: %w", err))
			return batch, false
		}
		if len(batch) > 0 {
			s.met.logAppends.Inc()
			s.met.logAppend.ObserveDuration(time.Since(la))
		}
		offset = first + uint64(len(batch))
	}
	if len(batch) > 0 {
		s.contributeBatch(batch)
	}
	s.met.dispatch.ObserveDuration(time.Since(t0))
	if seq != 0 && c.enqueue(frContributeAck, encodeContributeAck(seq, offset), false) {
		s.met.acksSent.Inc()
	}
	if derr != nil {
		c.protoError(derr)
		return batch, false
	}
	return batch, true
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

// Close refuses further contributions and wakes blocked enqueuers and
// replay pumps, then stops accepting and waits for every connection to
// drain its queued frames (bounded by DrainTimeout per connection) and
// send a goodbye. It is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closeCh)
		if s.log != nil {
			// Appends in flight fail, so nothing is acked that was not
			// logged; pumps blocked at the tail wake.
			_ = s.log.Close()
		}
	})
	s.edge.Close()
	return nil
}
