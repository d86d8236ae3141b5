package ged

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/frame"
)

// Handler consumes live notifications of a global event at an application.
// Handlers run on a dedicated dispatch goroutine (one per client, deliveries
// in order), not on the receive loop, so a handler may safely call back into
// the client (Flush, Subscribe, Contribute, ...).
type Handler func(occ *event.Occurrence, ctx detector.Context)

// StreamHandler consumes stream (replay and tail) deliveries. The offset
// is the record's position in the server's durable log; handlers that
// must be exactly-once deduplicate on it, and reconnecting from the last
// seen offset gives at-least-once delivery. Like Handler, it runs on the
// client's dispatch goroutine and may call back into the client.
type StreamHandler func(occ *event.Occurrence, offset uint64)

// ErrClosed reports use of a closed or draining client.
var ErrClosed = errors.New("ged: connection closed")

// helloTimeout bounds the Dial handshake.
const helloTimeout = 10 * time.Second

// Client is an application's connection to the GED. The local event
// detector contributes events through it, and detached rules on global
// events are driven by its notification callbacks. Contributions are
// pipelined: every contribute frame carries a sequence number the server
// acknowledges in order, and Flush waits until everything sent so far is
// acked (and, with a durable server log, appended).
type Client struct {
	app  string
	conn net.Conn

	wmu      sync.Mutex
	fw       *frame.Writer
	lastSeq  uint64 // last contribute seq sent (under wmu)
	sendDead bool   // goodbye received or connection failed

	mu         sync.Mutex
	acked      uint64 // highest contribute seq acknowledged
	ackWaiters []ackWaiter
	lastOffset uint64 // server log end at the last ack
	subs       map[uint32]*clientSub
	subAcks    map[uint32]chan uint64
	nextSub    uint32
	closed     bool
	err        error

	helloReady chan struct{}
	partition  int
	partitions int
	logEnd     uint64 // server log end at connect

	done chan struct{}

	// Handler dispatch rides its own goroutine so a handler can call back
	// into the client (Flush, Subscribe) without deadlocking the receive
	// loop that delivers the ack it waits for. The queue is unbounded: the
	// dispatcher itself may be parked inside such a reentrant call, and
	// blocking the receive loop here would recreate the deadlock.
	dispMu     sync.Mutex
	dispCond   *sync.Cond
	dispQ      []dispatchItem
	dispClosed bool
	dispDone   chan struct{}
}

// dispatchItem is one queued handler invocation (live notify or stream
// delivery).
type dispatchItem struct {
	sub    *clientSub
	live   bool
	occ    *event.Occurrence
	ctx    detector.Context
	offset uint64
}

type ackWaiter struct {
	seq uint64
	ch  chan struct{}
}

type clientSub struct {
	live   Handler
	stream StreamHandler
}

// Dial connects to the GED as the named application and completes the
// hello handshake.
func Dial(addr, app string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ged: dial: %w", err)
	}
	c := &Client{
		app:        app,
		conn:       conn,
		fw:         frame.NewWriter(conn, maxFrame),
		subs:       make(map[uint32]*clientSub),
		subAcks:    make(map[uint32]chan uint64),
		helloReady: make(chan struct{}),
		done:       make(chan struct{}),
		dispDone:   make(chan struct{}),
	}
	c.dispCond = sync.NewCond(&c.dispMu)
	if err := c.send(frHello, encodeHello(app)); err != nil {
		conn.Close()
		return nil, err
	}
	go c.recvLoop()
	go c.dispatchLoop()
	select {
	case <-c.helloReady:
		return c, nil
	case <-c.done:
		conn.Close()
		return nil, c.lastErr(errors.New("ged: connection closed during handshake"))
	case <-time.After(helloTimeout):
		conn.Close()
		return nil, errors.New("ged: hello handshake timed out")
	}
}

// lastErr returns the recorded connection error, or fallback.
func (c *Client) lastErr(fallback error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return fallback
}

func (c *Client) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// send frames and flushes one message.
func (c *Client) send(kind frameKind, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sendDead {
		return ErrClosed
	}
	if err := c.fw.Write(uint8(kind), payload); err != nil {
		c.sendDead = true
		return err
	}
	return c.fw.Flush()
}

// Partition reports the server's slot in a partitioned deployment, as
// (index, count). Standalone servers report (0, 1).
func (c *Client) Partition() (int, int) { return c.partition, c.partitions }

// LogEnd returns the server's durable-log end offset at connect time —
// the "subscribe from here for new events only" mark (0 on servers
// without a log).
func (c *Client) LogEnd() uint64 { return c.logEnd }

// LastOffset returns the server's log end as of the most recent
// contribute ack: everything this client contributed before the last
// Flush is at offsets below it.
func (c *Client) LastOffset() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastOffset
}

// dispatch enqueues one handler invocation for the dispatch goroutine.
func (c *Client) dispatch(it dispatchItem) {
	c.dispMu.Lock()
	c.dispQ = append(c.dispQ, it)
	c.dispMu.Unlock()
	c.dispCond.Signal()
}

// dispatchLoop runs handler callbacks off the receive goroutine, in
// delivery order, draining whatever is queued before exiting.
func (c *Client) dispatchLoop() {
	defer close(c.dispDone)
	for {
		c.dispMu.Lock()
		for len(c.dispQ) == 0 && !c.dispClosed {
			c.dispCond.Wait()
		}
		if len(c.dispQ) == 0 {
			c.dispMu.Unlock()
			return
		}
		q := c.dispQ
		c.dispQ = nil
		c.dispMu.Unlock()
		for _, it := range q {
			if it.live {
				it.sub.live(it.occ, it.ctx)
			} else {
				it.sub.stream(it.occ, it.offset)
			}
		}
	}
}

func (c *Client) recvLoop() {
	defer func() {
		c.mu.Lock()
		waiters := c.ackWaiters
		c.ackWaiters = nil
		acks := c.subAcks
		c.subAcks = make(map[uint32]chan uint64)
		c.mu.Unlock()
		for _, w := range waiters {
			close(w.ch)
		}
		for _, ch := range acks {
			close(ch)
		}
		close(c.done)
		c.dispMu.Lock()
		c.dispClosed = true
		c.dispMu.Unlock()
		c.dispCond.Signal()
	}()
	fr := frame.NewReader(c.conn, maxFrame)
	for {
		kind, payload, err := fr.Read()
		if err != nil {
			return
		}
		switch frameKind(kind) {
		case frHelloAck:
			pt, pn, end, err := decodeHelloAck(payload)
			if err != nil {
				c.setErr(err)
				return
			}
			c.partition, c.partitions, c.logEnd = pt, pn, end
			select {
			case <-c.helloReady:
			default:
				close(c.helloReady)
			}
		case frContributeAck:
			seq, offset, err := decodeContributeAck(payload)
			if err != nil {
				c.setErr(err)
				return
			}
			c.mu.Lock()
			if seq > c.acked {
				c.acked = seq
			}
			if offset > c.lastOffset {
				c.lastOffset = offset
			}
			kept := c.ackWaiters[:0]
			for _, w := range c.ackWaiters {
				if w.seq <= c.acked {
					close(w.ch)
				} else {
					kept = append(kept, w)
				}
			}
			c.ackWaiters = kept
			c.mu.Unlock()
		case frSubscribeAck:
			id, logEnd, err := decodeSubscribeAck(payload)
			if err != nil {
				c.setErr(err)
				return
			}
			c.mu.Lock()
			ch := c.subAcks[id]
			delete(c.subAcks, id)
			c.mu.Unlock()
			if ch != nil {
				ch <- logEnd
			}
		case frNotify:
			id, ctx, occ, err := decodeNotify(payload)
			if err != nil {
				c.setErr(err)
				return
			}
			c.mu.Lock()
			sub := c.subs[id]
			c.mu.Unlock()
			if sub != nil && sub.live != nil {
				c.dispatch(dispatchItem{sub: sub, live: true, occ: occ, ctx: detector.Context(ctx)})
			}
		case frStream:
			id, offset, occ, err := decodeStream(payload)
			if err != nil {
				c.setErr(err)
				return
			}
			c.mu.Lock()
			sub := c.subs[id]
			c.mu.Unlock()
			if sub != nil && sub.stream != nil {
				c.dispatch(dispatchItem{sub: sub, occ: occ, offset: offset})
			}
		case frError:
			msg, _ := decodeError(payload)
			c.setErr(fmt.Errorf("%w: server: %s", ErrProtocol, msg))
			return
		case frGoodbye:
			// Server draining: stop sending, keep consuming what is
			// already in flight until the server closes the socket.
			c.wmu.Lock()
			c.sendDead = true
			c.wmu.Unlock()
		}
	}
}

// Contribute forwards a (primitive) occurrence to the GED. The send is
// pipelined; call Flush to wait until it is acknowledged.
func (c *Client) Contribute(occ *event.Occurrence) error {
	return c.ContributeBatch([]event.Occurrence{*occ})
}

// ContributeBatch forwards a slice of primitive occurrences in one wire
// frame; the server appends them to its durable log (when enabled) and
// injects them into the global event graph under a single graph-lock
// acquisition. The send is pipelined; Flush waits for the ack.
func (c *Client) ContributeBatch(occs []event.Occurrence) error {
	if len(occs) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sendDead {
		return ErrClosed
	}
	seq := c.lastSeq + 1
	payload, err := encodeContribute(nil, seq, occs)
	if err != nil {
		return err
	}
	if err := c.fw.Write(uint8(frContribute), payload); err != nil {
		c.sendDead = true
		return err
	}
	if err := c.fw.Flush(); err != nil {
		c.sendDead = true
		return err
	}
	c.lastSeq = seq
	return nil
}

// Flush blocks until every contribution sent so far has been
// acknowledged by the server — with a durable server log, appended (and
// fsynced when the server runs LogSync). A client that Flushes before
// closing has zero in-flight (droppable) contributions.
func (c *Client) Flush() error {
	c.wmu.Lock()
	target := c.lastSeq
	c.wmu.Unlock()
	if target == 0 {
		return nil
	}
	c.mu.Lock()
	if c.acked >= target {
		c.mu.Unlock()
		return nil
	}
	if c.closed {
		// The receive loop is gone (or going): nothing will ever close a
		// waiter registered now, so fail fast instead of blocking.
		defer c.mu.Unlock()
		if c.err != nil {
			return c.err
		}
		return fmt.Errorf("ged: connection closed with %d contributions unacked", target-c.acked)
	}
	w := ackWaiter{seq: target, ch: make(chan struct{})}
	c.ackWaiters = append(c.ackWaiters, w)
	c.mu.Unlock()
	// c.done covers the race where recvLoop's cleanup ran between the
	// registration above and this wait: the waiter would never be closed,
	// but done is closed right after that cleanup.
	select {
	case <-w.ch:
	case <-c.done:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acked >= target {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	return fmt.Errorf("ged: connection closed with %d contributions unacked", target-c.acked)
}

// Acked returns the highest acknowledged contribute sequence number.
func (c *Client) Acked() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

// subscribe sends one subscription and waits for its ack.
func (c *Client) subscribe(eventName string, ctx detector.Context, mode byte, from uint64, sub *clientSub) (uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	c.nextSub++
	id := c.nextSub
	ack := make(chan uint64, 1)
	c.subs[id] = sub
	c.subAcks[id] = ack
	c.mu.Unlock()
	if err := c.send(frSubscribe, encodeSubscribe(id, eventName, int(ctx), mode, from)); err != nil {
		return 0, err
	}
	select {
	case end, ok := <-ack:
		if !ok {
			return 0, c.lastErr(errors.New("ged: connection closed before subscribe was acknowledged"))
		}
		return end, nil
	case <-c.done:
		return 0, c.lastErr(errors.New("ged: connection closed before subscribe was acknowledged"))
	}
}

// Subscribe registers a handler for live detections of a global event in
// the given context. It returns once the server has activated the
// subscription, so events contributed afterwards — by any application —
// are guaranteed to be seen. Live notifications ride a bounded server
// queue and may be shed under backpressure; use SubscribeFrom for
// at-least-once delivery.
func (c *Client) Subscribe(eventName string, ctx detector.Context, h Handler) error {
	_, err := c.subscribe(eventName, ctx, subLive, 0, &clientSub{live: h})
	return err
}

// SubscribeFrom streams the server's durable contribution log to h:
// records in [from, end) replay first (late joiners catch up), then the
// live tail follows. Event "*" matches every record. Delivery is
// at-least-once: after a reconnect, subscribing again from the last
// handled offset redelivers that offset. It returns the log end at
// subscription time (the first live offset the replay will cross).
func (c *Client) SubscribeFrom(eventName string, from uint64, h StreamHandler) (uint64, error) {
	return c.subscribe(eventName, detector.Recent, subStream, from, &clientSub{stream: h})
}

// Forwarder returns a detector.Subscriber that contributes every received
// occurrence to the GED: subscribe it to the local primitive events that
// should be globally visible.
func (c *Client) Forwarder() detector.Subscriber {
	return detector.SubscriberFunc(func(occ *event.Occurrence, _ detector.Context) {
		_ = c.Contribute(occ)
	})
}

// BatchForwarder returns a Subscriber that buffers up to size occurrences
// before sending them as one contribute frame, plus a flush function that
// sends whatever is pending (call it before Close, and whenever bounded
// delivery latency matters more than throughput). Buffering decouples the
// detector's signal path from the network: the wire write happens at most
// once per size occurrences rather than on every signal.
func (c *Client) BatchForwarder(size int) (detector.Subscriber, func() error) {
	if size < 1 {
		size = 1
	}
	var mu sync.Mutex
	buf := make([]event.Occurrence, 0, size)
	flush := func() error {
		mu.Lock()
		pending := buf
		buf = make([]event.Occurrence, 0, size)
		mu.Unlock()
		return c.ContributeBatch(pending)
	}
	sub := detector.SubscriberFunc(func(occ *event.Occurrence, _ detector.Context) {
		mu.Lock()
		buf = append(buf, *occ)
		full := len(buf) >= size
		mu.Unlock()
		if full {
			_ = flush()
		}
	})
	return sub, flush
}

// Close disconnects from the GED and waits for the receive loop to stop
// and the handler dispatcher to drain: no handler runs after Close
// returns. (A handler must not call Close on its own client.)
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.wmu.Lock()
	c.sendDead = true
	c.wmu.Unlock()
	err := c.conn.Close()
	<-c.done
	<-c.dispDone
	return err
}
