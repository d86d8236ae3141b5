package storage

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// groupCommitter is the dedicated WAL flusher goroutine behind group
// commit. Committers append their commit record, register the LSN they
// need durable, and block on a completion channel; the flusher drains the
// queue and amortizes one Flush (plus the fsync in sync mode) over the
// whole batch. Batching is natural: while one force is in flight, every
// newly arriving committer queues and is covered by the next force. On top
// of that the flusher gathers adaptively before each force — it yields the
// processor while new committers keep arriving and collects the batch as
// soon as arrivals go quiet — so writers released by one force coalesce
// into the next batch instead of splitting into alternating half-size
// cohorts. A lone committer pays a single yield, not a timer tick. The
// optional interval caps how long a still-growing gather may run.
//
// Failure semantics are inherited from the WAL's sticky seal: one failed
// force reports the error to every waiter in the batch, and all later
// waiters see ErrWALSealed. Injected crash verdicts (the torture
// harness's kill-points) are special: the flusher catches the *faults.Crash
// panic, seals the WAL, marks itself dead, and hands the crash to each
// waiter, which re-panics on its own goroutine — so a "kill -9 during the
// group fsync" surfaces exactly where a kill during a direct Flush used
// to, and the harness's recover sees it unchanged.
type groupCommitter struct {
	wal      *WAL
	interval time.Duration

	mu      sync.Mutex
	waiters []gcWaiter
	stopped bool // Close drained the queue; no new waiters accepted
	dead    bool // a crash verdict killed the flusher

	wake chan struct{}
	quit chan struct{}
	done chan struct{}

	stopOnce sync.Once

	// Batch-size accounting, readable without the mutex.
	batches atomic.Uint64 // forces issued on behalf of at least one waiter
	served  atomic.Uint64 // waiters delivered a verdict

	lastBatch int // previous batch size; the gather's self-tuning target

	// Histograms are attached by RegisterMetrics after construction.
	batchHist atomic.Pointer[obs.Histogram]
	waitHist  atomic.Pointer[obs.Histogram]
}

type gcResult struct {
	err   error
	crash *faults.Crash
}

type gcWaiter struct {
	upTo uint64
	ch   chan gcResult
}

func newGroupCommitter(wal *WAL, interval time.Duration) *groupCommitter {
	g := &groupCommitter{
		wal:      wal,
		interval: interval,
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go g.run()
	return g
}

// waitDurable blocks until every log record below upTo is durable,
// enqueueing with the flusher and sharing whatever force covers it. It is
// the group-commit replacement for a direct wal.Flush(upTo) on the commit
// path.
func (g *groupCommitter) waitDurable(upTo uint64) error {
	// Fast path: a previous batch already covered these records.
	if ok, err := g.wal.Durable(upTo); ok || err != nil {
		return err
	}
	var start time.Time
	wh := g.waitHist.Load()
	if wh != nil {
		start = time.Now()
	}
	ch := make(chan gcResult, 1)
	g.mu.Lock()
	if g.stopped || g.dead {
		g.mu.Unlock()
		// The flusher is gone — clean shutdown, or a crash verdict killed
		// it (the WAL is sealed then). Flush directly; the caller gets the
		// true durability verdict either way.
		return g.wal.Flush(upTo)
	}
	g.waiters = append(g.waiters, gcWaiter{upTo: upTo, ch: ch})
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default: // a wakeup is already pending; the flusher will see us
	}
	res := <-ch
	if wh != nil {
		wh.ObserveDuration(time.Since(start))
	}
	if res.crash != nil {
		// Re-raise the injected crash on the committer's goroutine, where
		// a kill during a direct Flush used to surface.
		panic(res.crash)
	}
	return res.err
}

// stop drains the queue, forces a final batch, and joins the flusher. Safe
// to call more than once and after a crash killed the flusher.
func (g *groupCommitter) stop() {
	g.stopOnce.Do(func() { close(g.quit) })
	<-g.done
}

func (g *groupCommitter) run() {
	defer close(g.done)
	for {
		quitting := false
		select {
		case <-g.wake:
		case <-g.quit:
			quitting = true
		}
		if !quitting {
			// Widen the batch window: let more committers queue before the
			// force. Purely a throughput/latency trade; correctness never
			// depends on it.
			g.gather()
		}
		g.mu.Lock()
		if quitting {
			g.stopped = true
		}
		batch := g.waiters
		g.waiters = nil
		g.mu.Unlock()
		g.lastBatch = len(batch) // flusher-goroutine only; no lock needed
		if crashed := g.flushBatch(batch); crashed {
			g.abandon()
			return
		}
		if quitting {
			return
		}
	}
}

// gatherMaxYields bounds the adaptive gather loop: even under a sustained
// arrival stream the flusher forces after this many yields, so commit
// latency stays bounded without a clock.
const gatherMaxYields = 256

// gather yields the processor while the waiter queue keeps growing and
// returns as soon as it goes stable, so the batch covers every committer
// that was already running toward the queue. time.Sleep is useless here —
// its granularity on a loaded box (~1ms) dwarfs the fsync it would be
// amortizing — whereas runtime.Gosched lets the in-flight committers finish
// their appends right now and costs a lone committer well under a
// microsecond. With an interval configured, a still-growing gather is
// additionally cut off at that deadline.
func (g *groupCommitter) gather() {
	var deadline time.Time
	if g.interval > 0 {
		deadline = time.Now().Add(g.interval)
	}
	// The previous batch size approximates the steady-state committer
	// population: as long as the queue is still short of it, stragglers
	// released by the last force are likely mid-append, so quiet yields
	// don't end the gather yet. Past the target (population grew, or this
	// really is everyone) two consecutive quiet yields force the batch —
	// one yield alone can land in the gap between a committer's release
	// and its next append, and losing that straggler to the next batch
	// costs a whole fsync. A queue quiet for many consecutive yields
	// forces even below target: the committer population shrank (some
	// writers left, or are blocked on locks), and snapshot readers or
	// other non-committing goroutines can keep the run queue busy
	// indefinitely — without this cut every batch would burn the full
	// yield budget against them.
	target := g.lastBatch
	g.mu.Lock()
	prev := len(g.waiters)
	g.mu.Unlock()
	quiet := 0
	for i := 0; i < gatherMaxYields; i++ {
		runtime.Gosched()
		g.mu.Lock()
		cur := len(g.waiters)
		g.mu.Unlock()
		if cur == prev {
			if quiet++; quiet >= 2 && cur >= target || quiet >= 8 {
				return
			}
		} else {
			quiet = 0
			prev = cur
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
	}
}

// flushBatch forces the log past every waiter in the batch and delivers
// the shared verdict. It reports true when an injected crash verdict
// killed the flush; the crash has then already been delivered to the
// batch.
func (g *groupCommitter) flushBatch(batch []gcWaiter) (crashed bool) {
	if len(batch) == 0 {
		return false
	}
	max := batch[0].upTo
	for _, w := range batch[1:] {
		if w.upTo > max {
			max = w.upTo
		}
	}
	g.batches.Add(1)
	g.served.Add(uint64(len(batch)))
	if h := g.batchHist.Load(); h != nil {
		h.Observe(float64(len(batch)))
	}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				c, ok := faults.AsCrash(r)
				if !ok {
					panic(r)
				}
				crashed = true
				// The "process" died mid-force. The batch's bytes are in an
				// unknowable state (maybe on disk, maybe lost), so seal the
				// log before anyone can retry over them, then let every
				// waiter re-panic the crash where its commit was running.
				g.wal.Seal(c)
				for _, w := range batch {
					w.ch <- gcResult{crash: c}
				}
			}
		}()
		// Kill window for the torture harness: a crash here is a death
		// between "commit records appended" and "batch forced" — every
		// transaction in the batch must recover all-or-nothing.
		if err := faults.Check(faults.StoreGroupFlush); err != nil {
			g.wal.Seal(err)
			return fmt.Errorf("storage: group commit flush: %w", err)
		}
		return g.wal.Flush(max)
	}()
	if crashed {
		return true
	}
	for _, w := range batch {
		w.ch <- gcResult{err: err}
	}
	return false
}

// abandon marks the flusher dead after a crash verdict and fails any
// waiters that slipped into the queue while the crash was being delivered
// (the sealed WAL gives them the right error).
func (g *groupCommitter) abandon() {
	g.mu.Lock()
	g.dead = true
	rest := g.waiters
	g.waiters = nil
	g.mu.Unlock()
	for _, w := range rest {
		w.ch <- gcResult{err: g.wal.Flush(w.upTo)}
	}
}
