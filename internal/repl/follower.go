package repl

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/storage"
)

const (
	dialTimeout    = 2 * time.Second
	backoffInitial = 100 * time.Millisecond
	backoffMax     = 5 * time.Second
	// checkpointEvery is how many applied records between follower
	// checkpoints, keeping its own restart-recovery tail bounded without
	// waiting on the leader's cadence.
	checkpointEvery = 4096
)

// Follower drives a follower store: it dials the leader, resumes the ship
// stream from the local log end, ingests and applies batches, and acks its
// durable position. A dead leader is survived by reconnecting with
// exponential backoff — the resume offset makes reconnection stateless —
// and a torn mid-segment tail from a leader crash is already truncated by
// the follower store's own open-time recovery before this loop ever runs.
//
// Fatal conditions (the leader refuses the offset, the shipped stream
// diverges from local state, an injected crash fault) stop the loop and
// are reported by Err; everything else retries forever until Stop or
// Promote.
type Follower struct {
	st     *storage.Store
	addrFn func() string

	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu   sync.Mutex
	conn net.Conn
	err  error

	applied    atomic.Uint64 // records applied since start
	reconnects atomic.Uint64
	connected  atomic.Bool
}

// StartFollower begins following. addrFn is consulted on every dial, so a
// restarted leader on a new address is picked up without restarting the
// follower. st must be open in follower mode.
func StartFollower(st *storage.Store, addrFn func() string) (*Follower, error) {
	if !st.IsFollower() {
		return nil, storage.ErrNotFollower
	}
	f := &Follower{
		st:     st,
		addrFn: addrFn,
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go f.run()
	return f, nil
}

// Stop terminates the follow loop (idempotent). The store stays open, in
// follower mode.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.quit) })
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
}

// Done is closed when the follow loop has exited.
func (f *Follower) Done() <-chan struct{} { return f.done }

// Err returns the fatal error that stopped the loop, nil if it is running
// or was stopped deliberately.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Applied returns the number of records applied since start.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Reconnects returns how many times the stream was re-established.
func (f *Follower) Reconnects() uint64 { return f.reconnects.Load() }

// Connected reports whether a ship stream is currently established. A
// fresh follower should be attached before the leader prunes history, or
// its first handshake may already require a resync.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Promote stops following and promotes the store to leader.
func (f *Follower) Promote() (storage.PromoteStats, error) {
	f.Stop()
	if err := f.Err(); err != nil {
		return storage.PromoteStats{}, fmt.Errorf("repl: cannot promote a failed follower: %w", err)
	}
	return f.st.Promote()
}

func (f *Follower) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *Follower) run() {
	defer close(f.done)
	// An injected crash fault in the apply path panics through here; the
	// torture harness treats the follower store as killed and reopens it
	// from disk. Record it as the loop's fatal error instead of taking
	// the process down.
	defer func() {
		if r := recover(); r != nil {
			if c, ok := faults.AsCrash(r); ok {
				f.fail(c)
				return
			}
			panic(r)
		}
	}()
	backoff := backoffInitial
	for {
		if conn, err := net.DialTimeout("tcp", f.addrFn(), dialTimeout); err == nil {
			f.mu.Lock()
			f.conn = conn
			f.mu.Unlock()
			// Stop closes quit before it looks for a conn to close.
			select {
			case <-f.quit:
				conn.Close()
				return
			default:
			}
			fatal, progressed, err := f.stream(conn)
			conn.Close()
			f.mu.Lock()
			f.conn = nil
			f.mu.Unlock()
			f.connected.Store(false)
			if fatal {
				f.fail(err)
				return
			}
			select {
			case <-f.quit:
				return
			default:
			}
			f.reconnects.Add(1)
			if progressed {
				backoff = backoffInitial
			}
		}
		select {
		case <-f.quit:
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, backoffMax)
	}
}

// stream runs one connection's conversation. fatal reports an error no
// reconnect can fix; progressed reports whether any batch applied (resets
// backoff).
func (f *Follower) stream(conn net.Conn) (fatal, progressed bool, err error) {
	fw := frame.NewWriter(conn, maxFrame)
	fr := frame.NewReader(conn, maxFrame)
	if err := fw.Send(frHello, encodeHello(f.st.LogEnd())); err != nil {
		return false, false, err
	}
	kind, payload, err := fr.Read()
	if err != nil {
		return false, false, err
	}
	switch kind {
	case frHelloAck:
		if _, _, err := decodeHelloAck(payload); err != nil {
			return false, false, err
		}
	case frError:
		// The leader will not serve this offset (pruned below it, or we
		// are ahead of its log — a divergence). No reconnect fixes that.
		return true, false, fmt.Errorf("%w: %s", ErrRefused, string(payload))
	default:
		return false, false, protoErrf("handshake answered with frame kind %d", kind)
	}
	f.connected.Store(true)
	var sinceCkpt uint64
	var ack []byte
	for {
		kind, payload, err := fr.Read()
		if err != nil {
			return false, progressed, err // connection died: reconnect
		}
		switch kind {
		case frData:
			base, nrecs, raw, err := decodeData(payload)
			if err != nil {
				return false, progressed, err
			}
			if base != f.st.LogEnd() {
				// A frame from a stale stream position (e.g. duplicated
				// after a reconnect race). Drop the connection and resume
				// cleanly from our end.
				return false, progressed, protoErrf(
					"data frame at lsn %d, local log ends at %d", base, f.st.LogEnd())
			}
			n, err := f.st.ReplIngest(base, raw)
			if err != nil {
				// Divergence, a sealed log, failed apply: local state can
				// no longer follow this leader.
				return true, progressed, err
			}
			if n != nrecs {
				return true, progressed, protoErrf("batch announced %d records, applied %d", nrecs, n)
			}
			if err := f.st.FlushLog(); err != nil {
				return true, progressed, err
			}
			f.applied.Add(uint64(n))
			sinceCkpt += uint64(n)
			progressed = true
			ack = encodeAck(ack, f.st.LogFlushed(), f.applied.Load())
			if err := fw.Send(frAck, ack); err != nil {
				return false, progressed, err
			}
			if sinceCkpt >= checkpointEvery {
				sinceCkpt = 0
				if err := f.st.Checkpoint(); err != nil {
					return true, progressed, err
				}
			}
		case frError:
			return true, progressed, fmt.Errorf("%w: %s", ErrRefused, string(payload))
		default:
			return false, progressed, protoErrf("unexpected frame kind %d", kind)
		}
	}
}

// RegisterMetrics exposes the apply side's counters.
func (f *Follower) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sentinel_repl_apply_records_total",
		"Shipped WAL records applied by this follower.",
		f.applied.Load)
	r.CounterFunc("sentinel_repl_reconnects_total",
		"Times the follower re-established its ship stream.",
		f.reconnects.Load)
	r.GaugeFunc("sentinel_repl_connected",
		"1 while the ship stream is established, else 0.",
		func() float64 {
			if f.connected.Load() {
				return 1
			}
			return 0
		})
}
