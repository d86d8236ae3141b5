package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	sentinel "repro"
	"repro/internal/event"
	"repro/internal/ged"
	"repro/internal/obs"
	"repro/internal/snoop"
)

// ged_fanin: two in-memory applications feed one global SEQ through an
// in-process GED server on loopback; application A reacts to it.
//
//	A: RaiseEvent(order_placed) ─┐
//	                             ├→ ged.Server: log append, g_match =
//	B: RaiseEvent(payment_ok)  ──┘   order_placed >> payment_ok (CHRONICLE)
//	                                 └→ notify → A: OnGlobalEvent action
const (
	gedFlushEvery = 1024 // transactions between FlushGlobalEvents in the throughput phase
	gedRate       = 2000 // pairs per second in the open-loop latency phase
	gedOrderLead  = 20 * time.Millisecond
	gedOrderChunk = 20 // orders A raises between flushes in the latency phase
	gedSendQueue  = 8192
	gedMaxPairs   = 1 << 21
)

type gedEnv struct {
	cfg    config
	server *ged.Server
	reg    *obs.Registry // the server's metrics
	a, b   *sentinel.Database
	tr     atomic.Pointer[tracer]

	nextPair atomic.Int64 // pairs handed out so far
	// due[p] is when pair p's terminating raise was due (ns since base);
	// 0 marks a throughput-phase pair, whose notification is not timed.
	base     time.Time
	due      []int64
	seen     []uint32 // notifications per pair
	received atomic.Int64
	notify   *samples // handler goroutine only
	badPairs atomic.Int64

	txnLat    [2]*samples
	ackLat    *samples
	late      *samples
	attempted [2]int64
	failed    [2]int64
}

func setupGED(cfg config, dir string) (env, error) {
	logDir := filepath.Join(dir, "gedlog")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	e := &gedEnv{cfg: cfg, base: time.Now(), reg: obs.NewRegistry()}
	var err error
	e.server, err = ged.NewServerOptions(ged.Options{LogDir: logDir, SendQueue: gedSendQueue})
	if err != nil {
		return nil, err
	}
	e.server.RegisterMetrics(e.reg)
	for _, name := range []string{"order_placed", "payment_ok"} {
		if _, err := e.server.Det.DefineExplicit(name); err != nil {
			e.close()
			return nil, err
		}
	}
	if err := (&snoop.Compiler{Det: e.server.Det}).CompileSource(`event g_match = order_placed >> payment_ok;`); err != nil {
		e.close()
		return nil, err
	}
	addr, err := e.server.Listen("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	open := func(app, shared string) (*sentinel.Database, error) {
		db, err := sentinel.Open(sentinel.Options{AppName: app, GEDAddr: addr})
		if err != nil {
			return nil, err
		}
		if err := db.DefineExplicitEvent(shared); err != nil {
			return db, err
		}
		return db, db.ShareEvent(shared)
	}
	if e.a, err = open("A", "order_placed"); err != nil {
		e.close()
		return nil, err
	}
	if e.b, err = open("B", "payment_ok"); err != nil {
		e.close()
		return nil, err
	}
	if err := e.a.OnGlobalEvent("g_match", sentinel.Chronicle, e.onMatch); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *gedEnv) close() {
	if e.a != nil {
		_ = e.a.Close()
	}
	if e.b != nil {
		_ = e.b.Close()
	}
	_ = e.server.Close()
}

// amountFor is the payload both raises of a pair carry, derived from the
// seed so the handler can check that what arrived is what was generated.
func (e *gedEnv) amountFor(pair int64) int64 {
	return int64(newRng(e.cfg.seed, uint64(pair)).next() >> 40)
}

// onMatch is A's OnGlobalEvent action: it runs on A's GED dispatch
// goroutine, in a fresh top-level transaction of A.
func (e *gedEnv) onMatch(x *sentinel.Execution) error {
	now := int64(time.Since(e.base))
	ct := e.tr.Load().client(2)
	root := ct.open(stRoot)
	h := ct.open(stOnGlobal)
	params := x.Occurrence.AllParams()
	ok := len(params) == 2
	var pair int64
	if ok {
		o, _ := params[0].Get("pair")
		p, _ := params[1].Get("pair")
		oa, _ := params[0].Get("amount")
		pa, _ := params[1].Get("amount")
		pair, ok = o.(int64)
		ok = ok && o == p && pair >= 0 && pair < gedMaxPairs && oa == pa && oa == e.amountFor(pair)
	}
	if !ok {
		e.badPairs.Add(1)
	} else {
		if atomic.AddUint32(&e.seen[pair], 1) == 1 {
			if due := atomic.LoadInt64(&e.due[pair]); due > 0 {
				e.notify.add(now - due)
			}
		}
	}
	e.received.Add(1)
	ct.close(h)
	ct.close(root)
	return nil
}

// raise runs one transaction that raises the event for the pair.
func (e *gedEnv) raise(app int, name string, pair int64, record bool) {
	db := e.a
	if app == 1 {
		db = e.b
	}
	s := sess{db, e.tr.Load().client(app)}
	e.attempted[app]++
	root := s.ct.open(stRoot)
	t0 := time.Now()
	tx, err := s.begin()
	if err == nil {
		ri := s.ct.open(stRaise)
		err = db.RaiseEvent(tx, name, event.NewParams("pair", pair, "amount", e.amountFor(pair)))
		s.ct.close(ri)
		if err != nil {
			_ = tx.Abort()
		} else {
			err = s.finish(tx, true)
		}
	}
	s.ct.close(root)
	if err != nil {
		e.failed[app]++
		return
	}
	if record {
		e.txnLat[app].addAt(t0)
	}
}

func (e *gedEnv) flush(app int) {
	db := e.a
	if app == 1 {
		db = e.b
	}
	ct := e.tr.Load().client(app)
	root := ct.open(stRoot)
	f := ct.open(stGEDFlush)
	err := db.FlushGlobalEvents()
	ct.close(f)
	ct.close(root)
	e.attempted[app]++
	if err != nil {
		e.failed[app]++
	}
}

// throughput pipelines both applications for d: A raises a batch of
// orders and flushes; once the batch is acknowledged (so it is in the
// server's graph), B raises the matching payments. It returns the wall
// time until both drivers finished, allocations, and transactions run.
func (e *gedEnv) throughput(d time.Duration, record bool) (elapsed float64, mallocs uint64, txns int64) {
	type batch struct{ first, n int64 }
	acked := make(chan batch, 2) // A leads B by at most two batches, bounding the server's pending initiators
	n := int64(e.cfg.scaled(gedFlushEvery))
	var pairs atomic.Int64
	elapsed, mallocs = runClients(2, d, func(app int, stop func() bool) {
		if app == 0 {
			for !stop() {
				first := e.nextPair.Add(n) - n
				if first+n > gedMaxPairs {
					break
				}
				for p := first; p < first+n; p++ {
					e.raise(0, "order_placed", p, record)
				}
				e.flush(0)
				acked <- batch{first, n}
			}
			close(acked)
			return
		}
		for bt := range acked {
			for p := bt.first; p < bt.first+bt.n; p++ {
				e.raise(1, "payment_ok", p, record)
			}
			e.flush(1)
			pairs.Add(bt.n)
		}
	})
	return elapsed, mallocs, 2 * pairs.Load()
}

// waitUntil returns at t. Waits over 2 ms sleep first; the rest is a busy
// loop, because the runtime's timers fire up to a millisecond late when a
// processor idles and a yielding loop keeps the processors from ever
// polling the network. The open-loop generator therefore occupies one of
// the sandbox's two cores and the program under test has the other (see
// splitCPUs).
func waitUntil(t time.Time) {
	if left := time.Until(t); left > 2*time.Millisecond {
		time.Sleep(left - 1500*time.Microsecond)
	}
	for time.Until(t) > 0 {
	}
}

// latency is the open-loop phase, one generator for both applications:
// pair j's payment is raised in B at start + j/rate whatever happened to
// earlier pairs, and notify latency counts from that due time. Right
// after it the generator raises the order of a pair gedOrderLead later in
// A, and every gedOrderChunk orders it flushes A (raise -> ack, timed as
// ged.contribute_ack_us), so every order is acknowledged — in the
// server's graph — at least half the lead before its payment is due.
func (e *gedEnv) latency(d time.Duration) (pairs int64) {
	n := int64(d.Seconds() * gedRate)
	first := e.nextPair.Add(n) - n
	if first+n > gedMaxPairs {
		return 0
	}
	period := time.Second / gedRate
	lead := int64(gedOrderLead / period)
	for j := int64(0); j < lead && j < n; j++ {
		e.raise(0, "order_placed", first+j, false)
	}
	e.flush(0)
	runtime.LockOSThread()
	cpu, restore := splitCPUs()
	e.cfg.awake.release(cpu) // this thread busy-waits there itself
	start := time.Now().Add(2 * time.Millisecond)
	dueAt := func(j int64) time.Time { return start.Add(time.Duration(j) * period) }
	for j := int64(0); j < n; j++ {
		atomic.StoreInt64(&e.due[first+j], int64(dueAt(j).Sub(e.base)))
	}
	for j := int64(0); j < n; j++ {
		waitUntil(dueAt(j))
		e.late.add(int64(time.Since(dueAt(j))))
		e.raise(1, "payment_ok", first+j, false)
		if j+lead < n {
			e.raise(0, "order_placed", first+j+lead, false)
			if (j+1)%gedOrderChunk == 0 {
				t0 := time.Now()
				e.flush(0)
				e.ackLat.add(int64(time.Since(t0)))
			}
		}
	}
	restore()
	runtime.UnlockOSThread()
	e.flush(0)
	e.flush(1)
	return n
}

// awaitNotifications waits until A has handled one notification per pair.
func (e *gedEnv) awaitNotifications(pairs int64) bool {
	deadline := time.Now().Add(10 * time.Second)
	for e.received.Load() < pairs {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func (e *gedEnv) run(rep *report) error {
	cfg := e.cfg
	// The benchmark's own buffers are not part of the program's set-up.
	e.due = make([]int64, gedMaxPairs)
	e.seen = make([]uint32, gedMaxPairs)
	e.notify = newSamples(int(cfg.seconds*gedRate) + 1000)
	e.ackLat = newSamples(int(cfg.seconds*gedRate) + 1000)
	e.late = newSamples(int(cfg.seconds*gedRate) + 1000)
	for i := range e.txnLat {
		e.txnLat[i] = newTimedSamples(int(cfg.seconds*200000) + 1000)
	}
	rep.notef("%s", envLine(0))
	rep.notef("sizes: GED server in process with a durable contribution log (fsync off), send queue %d frames, two in-memory applications on loopback, unbatched forwarder, FlushGlobalEvents every %d transactions; throughput phase closed loop with one pipelined driver per application, latency phase open loop at %d pairs/s",
		gedSendQueue, cfg.scaled(gedFlushEvery), gedRate)
	_, _, warm := e.throughput(cfg.window(0.1), false)
	total := warm / 2
	e.awaitNotifications(total)

	var srv regDelta
	if !cfg.trace {
		elapsed, mallocs, txns := e.throughput(cfg.window(0.4), true)
		total += txns / 2
		e.awaitNotifications(total)
		total += e.latency(cfg.window(0.6))
		e.awaitNotifications(total)
		rep.e2e["txn_per_s"] = steadyRate(e.txnLat[0], e.txnLat[1])
		rep.e2e["allocs_per_txn"] = ratio(float64(mallocs), float64(txns))
		latencyMetrics(rep, "txn", rep.e2e, e.txnLat[0], e.txnLat[1])
		latencyMetrics(rep, "notify", rep.e2e, e.notify)
		rep.notef("notify_*: due time of the terminating raise in B -> OnGlobalEvent action entered in A, open loop")
		rep.notef("throughput phase %.2f s, %d transactions (both applications)", elapsed, txns)
	} else {
		refElapsed, _, refTxns := e.throughput(cfg.window(0.2), false)
		total += refTxns / 2
		e.awaitNotifications(total)
		e.tr.Store(newTracer(3)) // A's driver, B's driver, A's handler
		before, abefore := snapRegistry(e.reg), snapRegistry(e.a.Metrics())
		elapsed, _, txns := e.throughput(cfg.window(0.4), true)
		total += txns / 2
		e.awaitNotifications(total)
		st := e.tr.Load().table() // the stage table covers the closed-loop phase
		total += e.latency(cfg.window(0.4))
		e.awaitNotifications(total)
		srv = regDelta{before, snapRegistry(e.reg)}
		fillCommon(rep, regDelta{abefore, snapRegistry(e.a.Metrics())}, float64(txns)/2)
		fillTraced(rep, st)
		l := rep.layer
		l["ged.contribute_ack_us"] = usOf(percentile(merged(e.ackLat), 50))
		l["ged.log_append_us"] = srv.histMeanUS("sentinel_ged_log_append_seconds")
		l["ged.send_queue_wait_us"] = srv.histMeanUS("sentinel_ged_send_queue_wait_seconds")
		l["ged.dispatch_us"] = srv.histMeanUS("sentinel_ged_dispatch_seconds")
		l["ged.occurrences_per_batch"] = ratio(srv.counter("sentinel_ged_contribute_occurrences_total"), srv.counter("sentinel_ged_contribute_batches_total"))
		l["ged.notify_shed"] = srv.counter("sentinel_ged_notify_shed_total")
		_, l["ged.notify_p99_us"], _, _, _ = steadyPercentiles(e.notify)
		if err := finishTraced(rep, cfg, e.tr.Load(), txns, elapsed, ratio(float64(refTxns), refElapsed), e.txnLat[0], e.txnLat[1]); err != nil {
			return err
		}
	}
	lateSorted := merged(e.late)
	rep.layer["ged.generator_late_us"] = usOf(percentile(lateSorted, 50))
	lateTail, used := tailPercentile(lateSorted, 99)
	rep.notef("open-loop generator ran late by p50 %.1f us, p%.2f %.1f us over %d raises; notify samples %d",
		usOf(percentile(lateSorted, 50)), used, usOf(lateTail), len(lateSorted), len(e.notify.v))
	e.check(rep, total)
	for app := range e.attempted {
		rep.attempted += e.attempted[app]
		rep.failed += e.failed[app]
	}
	return nil
}

// check: one notification per pair and no duplicates, matching payloads,
// nothing shed, and the contribution log holding every raise.
func (e *gedEnv) check(rep *report, pairs int64) {
	rep.attempted++
	if got := e.received.Load(); got != pairs {
		rep.fail("%d notifications handled for %d pairs sent", got, pairs)
	}
	dups, missing := 0, 0
	for p := int64(0); p < e.nextPair.Load(); p++ {
		switch n := atomic.LoadUint32(&e.seen[p]); {
		case n == 0:
			missing++
		case n > 1:
			dups++
		}
	}
	if dups > 0 || missing > 0 {
		rep.fail("%d pairs notified more than once, %d never", dups, missing)
	}
	if n := e.badPairs.Load(); n > 0 {
		rep.fail("%d notifications whose two constituents disagree on pair id or payload", n)
	}
	snap := snapRegistry(e.reg)
	if shed := snap["sentinel_ged_notify_shed_total"].Value; shed != 0 {
		rep.fail("ged.notify_shed = %.0f", shed)
	}
	if end := snap["sentinel_ged_log_end_offset"].Value; int64(end) != 2*pairs {
		rep.fail("contribution log ends at offset %.0f after %d acknowledged contributions", end, 2*pairs)
	}
	rep.notef("checked: %d pairs, one notification each with matching pair id and payload, none shed, log end offset = contributions acknowledged", pairs)
}
