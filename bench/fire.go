package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	sentinel "repro"
	"repro/internal/detector"
	"repro/internal/query"
)

// fire_durable: one durable, replicated ECA firing per transaction.
//
//	Begin → Load(ACCOUNT) → Invoke("withdraw") → end-event → immediate rule
//	with an indexed EXISTS condition → action creates an AUDIT object in
//	its subtransaction → Commit (group commit + fdatasync) → ship →
//	follower apply.
const (
	fireAccounts  = 10000
	fireBranches  = 100
	fireClients   = 2
	fireLoadBatch = 1000
	fireBalance   = 1e6
	fireSeqStride = 1 << 40 // client c owns seq numbers c*stride+1, c*stride+2, ...
	fireCondKey   = 7.0     // the rule's EXISTS probes branch 7 of the hash index
)

type fireEnv struct {
	cfg      config
	leader   *sentinel.Database
	follower *sentinel.Database
	accounts []sentinel.OID
	fsyncUS  float64

	tr atomic.Pointer[tracer]

	// section serializes Begin..Invoke across clients. Three defects of the
	// program make that necessary today (see README.md, "What the workloads
	// step around"); Commit — the force — stays outside it. The wait for it
	// is part of the transaction's latency and a stage of its own, and the
	// traced run ends with a phase that leaves it out (unserialized).
	section    sync.Mutex
	serialized bool
	clients    []*fireClient
}

type fireClient struct {
	id        int
	rnd       *rng
	committed int64 // transactions committed, = the last seq issued
	firedSeq  atomic.Int64
	auditOID  atomic.Uint64
	lat       *samples
	attempted int64
	failed    int64
}

func setupFire(cfg config, dir string) (env, error) {
	e := &fireEnv{cfg: cfg, serialized: true}
	var err error
	if e.fsyncUS, err = measureDeviceFsync(dir); err != nil {
		return nil, err
	}
	for _, d := range []string{"leader", "follower"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return nil, err
		}
	}
	e.leader, err = sentinel.Open(sentinel.Options{
		Dir: filepath.Join(dir, "leader"), SyncWAL: true, PoolSize: 4096, ReplAddr: "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	e.follower, err = sentinel.Open(sentinel.Options{
		Dir: filepath.Join(dir, "follower"), PoolSize: 4096, ReplicaOf: e.leader.ReplAddr(),
	})
	if err != nil {
		e.close()
		return nil, err
	}
	if err := e.define(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *fireEnv) define() error {
	if err := e.leader.Exec(`class ACCOUNT reactive { event end(withdrawn) withdraw(amount, seq); }`); err != nil {
		return err
	}
	if _, err := e.leader.DefineClass("AUDIT", "", false); err != nil {
		return err
	}
	// Schema lives in code: the follower defines the same classes.
	for _, c := range []string{"ACCOUNT", "AUDIT"} {
		if _, err := e.follower.DefineClass(c, "", false); err != nil {
			return err
		}
	}
	acct, err := e.leader.Class("ACCOUNT")
	if err != nil {
		return err
	}
	acct.DefineMethod(sentinel.Method{
		Name: "withdraw", Params: []string{"amount", "seq"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			done := e.tr.Load().forTxn(self.Txn.ID()).body()
			self.Set("balance", self.Get("balance").(float64)-args[0].(float64))
			done()
			return nil, nil
		},
	})
	n := e.cfg.scaled(fireAccounts)
	for lo := 0; lo < n; lo += fireLoadBatch {
		tx, err := e.leader.Begin()
		if err != nil {
			return err
		}
		for i := lo; i < lo+fireLoadBatch && i < n; i++ {
			inst, err := e.leader.New(tx, "ACCOUNT", map[string]any{
				"id": float64(i), "branch": float64(i % fireBranches), "balance": fireBalance,
			})
			if err != nil {
				return err
			}
			e.accounts = append(e.accounts, inst.OID)
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	tx, err := e.leader.Begin()
	if err != nil {
		return err
	}
	if _, err := e.leader.CreateIndex(tx, "ACCOUNT", "branch", sentinel.HashIndex); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if err := e.defineRule(false); err != nil {
		return err
	}
	for c := 0; c < fireClients; c++ {
		e.clients = append(e.clients, &fireClient{id: c, rnd: newRng(e.cfg.seed, uint64(c))})
	}
	// Connected means caught up: the last account is readable on the follower.
	return e.awaitOnFollower(e.accounts[len(e.accounts)-1], 30*time.Second)
}

// defineRule installs the audit rule. Untraced it carries the declarative
// Where; traced it is replaced by a function condition that times a direct
// QueryManager().Exists call with the same predicate, because the engine
// offers no callback inside a Where.
func (e *fireEnv) defineRule(traced bool) error {
	pred := query.Eq("branch", fireCondKey)
	spec := sentinel.RuleSpec{Name: "audit_withdraw", Event: "withdrawn", Action: e.audit}
	if !traced {
		spec.Where = &sentinel.RuleWhere{Class: "ACCOUNT", Pred: pred}
	} else {
		qm := e.leader.QueryManager()
		spec.Condition = func(x *sentinel.Execution) bool {
			ct := e.tr.Load().forTxn(x.Occurrence.Txn)
			ci, condDone := ct.cb(stCond, -1)
			_, existsDone := ct.cb(stExists, ci)
			ok, err := qm.Exists(x.Txn, "ACCOUNT", false, pred)
			existsDone()
			condDone()
			return ok && err == nil
		}
	}
	_, err := e.leader.DefineRule(spec)
	return err
}

// audit is the rule action: one AUDIT object per withdrawal, carrying the
// withdrawal's seq so the check can match each AUDIT to its transaction.
func (e *fireEnv) audit(x *sentinel.Execution) error {
	ct := e.tr.Load().forTxn(x.Occurrence.Txn)
	ai, actionDone := ct.cb(stAction, -1)
	defer actionDone()
	seq, _ := x.Occurrence.Params.Get("seq")
	amount, _ := x.Occurrence.Params.Get("amount")
	_, newDone := ct.cb(stNew, ai)
	inst, err := e.leader.New(x.Txn, "AUDIT", map[string]any{
		"account": float64(x.Occurrence.Object), "seq": float64(seq.(int64)), "amount": amount,
	})
	newDone()
	if err != nil {
		return err
	}
	cl := e.clients[seq.(int64)/fireSeqStride]
	cl.auditOID.Store(uint64(inst.OID))
	cl.firedSeq.Store(seq.(int64))
	return nil
}

func (e *fireEnv) close() {
	if e.follower != nil {
		_ = e.follower.Close()
	}
	if e.leader != nil {
		_ = e.leader.Close()
	}
}

// awaitOnFollower polls snapshot reads on the follower until oid loads.
func (e *fireEnv) awaitOnFollower(oid sentinel.OID, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if e.visibleOnFollower(oid) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("object %v not visible on the follower after %v", oid, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *fireEnv) visibleOnFollower(oid sentinel.OID) bool {
	stx, err := e.follower.BeginSnapshot()
	if err != nil {
		return false
	}
	_, err = e.follower.Load(stx, oid)
	_ = stx.Commit()
	return err == nil
}

// oneTxn runs one withdrawal and reports whether it committed.
func (e *fireEnv) oneTxn(c *fireClient, record bool) bool {
	s := sess{e.leader, e.tr.Load().client(c.id)}
	c.attempted++
	// Each client owns the accounts of its own parity, so a client reads
	// back exactly the balances it wrote.
	half := len(e.accounts) / fireClients
	oid := e.accounts[c.rnd.intn(half)*fireClients+c.id]
	amount := float64(1 + c.rnd.intn(100))
	seq := int64(c.id)*fireSeqStride + c.committed + 1

	root := s.ct.open(stRoot)
	t0 := time.Now()
	if e.serialized {
		wait := s.ct.open(stSection)
		e.section.Lock()
		s.ct.close(wait)
	}
	tx, err := s.begin()
	if err == nil {
		var inst *sentinel.Instance
		if inst, err = s.load(tx, oid); err == nil {
			err = s.invoke(tx, inst, "withdraw", stPersistSignal, amount, seq)
		}
		if err == nil && c.firedSeq.Load() != seq {
			err = errors.New("rule did not fire before Invoke returned")
		}
	}
	if e.serialized {
		e.section.Unlock()
	}
	if err != nil {
		if tx != nil {
			_ = tx.Abort()
		}
		s.ct.close(root)
		c.failed++
		return false
	}
	err = s.finish(tx, true)
	s.ct.close(root)
	if err != nil {
		c.failed++
		return false
	}
	c.committed++
	if record {
		c.lat.addAt(t0)
	}
	return true
}

func (e *fireEnv) throughput(d time.Duration, record bool) (elapsed float64, mallocs uint64, txns int64) {
	before := e.committedTotal()
	elapsed, mallocs = runClients(fireClients, d, func(c int, stop func() bool) {
		for !stop() {
			e.oneTxn(e.clients[c], record)
		}
	})
	return elapsed, mallocs, e.committedTotal() - before
}

// unserialized runs the clients for d without the section mutex and
// returns the share of their operations that failed: what the mutex hides.
// Those failures are the program's known defects, so they are reported as
// a per-layer figure and left out of the run's own attempted and failed.
func (e *fireEnv) unserialized(d time.Duration) float64 {
	type counts struct{ attempted, failed int64 }
	before := make([]counts, len(e.clients))
	for i, c := range e.clients {
		before[i] = counts{c.attempted, c.failed}
	}
	e.serialized = false
	e.throughput(d, false)
	e.serialized = true
	var attempted, failed int64
	for i, c := range e.clients {
		attempted += c.attempted - before[i].attempted
		failed += c.failed - before[i].failed
		c.attempted, c.failed = before[i].attempted, before[i].failed
	}
	return ratio(float64(failed), float64(attempted))
}

func (e *fireEnv) committedTotal() int64 {
	var n int64
	for _, c := range e.clients {
		n += c.committed
	}
	return n
}

// visibility runs transactions with one outstanding and times Commit
// returned → the action's AUDIT object readable on the follower.
func (e *fireEnv) visibility(d time.Duration, out *samples) {
	// The poll loop below keeps its CPU busy itself, and an idle-policy
	// loop beside it is given whole scheduler ticks now and then: with the
	// keep-awake children running, visible_p99_us reads 15 ms for 8.
	e.cfg.awake.releaseAll()
	c := e.clients[0]
	ct := e.tr.Load().client(0)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if !e.oneTxn(c, false) {
			continue
		}
		committed := time.Now()
		oid := sentinel.OID(c.auditOID.Load())
		root := ct.open(stRoot)
		poll := ct.open(stVisible)
		limit := committed.Add(5 * time.Second)
		ok := false
		for !ok && time.Now().Before(limit) {
			if ok = e.visibleOnFollower(oid); !ok {
				runtime.Gosched()
			}
		}
		ct.close(poll)
		ct.close(root)
		c.attempted++
		if !ok {
			c.failed++
			continue
		}
		out.add(int64(time.Since(committed)))
	}
}

func (e *fireEnv) run(rep *report) error {
	cfg := e.cfg
	rep.notef("%s", envLine(e.fsyncUS))
	rep.notef("sizes: %d ACCOUNT objects, %d branches, pool 4096 pages (16 MiB) on leader and follower, %d closed-loop clients whose Begin..Invoke the benchmark serializes, SyncWAL on (leader), one follower on loopback",
		len(e.accounts), fireBranches, fireClients)
	e.throughput(cfg.window(0.1), false) // warm-up: caches, lazy scheduler start, follower stream

	// The benchmark's own buffers are not part of the program's set-up.
	for _, c := range e.clients {
		c.lat = newTimedSamples(int(cfg.seconds*20000) + 1000)
	}
	visible := newSamples(int(cfg.seconds*5000) + 1000)
	if !cfg.trace {
		elapsed, mallocs, txns := e.throughput(cfg.window(0.6), true)
		e.visibility(cfg.window(0.4), visible)
		rep.e2e["txn_per_s"] = steadyRate(e.clients[0].lat, e.clients[1].lat)
		rep.e2e["allocs_per_txn"] = ratio(float64(mallocs), float64(txns))
		latencyMetrics(rep, "txn", rep.e2e, e.clients[0].lat, e.clients[1].lat)
		latencyMetrics(rep, "visible", rep.e2e, visible)
		rep.notef("visible_*: leader Commit returned -> AUDIT readable on the follower (BeginSnapshot+Load), one outstanding")
		rep.notef("throughput window %.2f s closed loop, %d committed", elapsed, txns)
	} else {
		refElapsed, _, refTxns := e.throughput(cfg.window(0.2), false)
		if err := e.enableTrace(); err != nil {
			return err
		}
		lagStop := e.sampleLag(rep)
		before, fbefore := snapRegistry(e.leader.Metrics()), snapRegistry(e.follower.Metrics())
		elapsed, _, txns := e.throughput(cfg.window(0.5), true)
		d := regDelta{before, snapRegistry(e.leader.Metrics())}
		fd := regDelta{fbefore, snapRegistry(e.follower.Metrics())}
		lagStop()
		e.fillLayers(rep, d, fd, txns)
		e.visibility(cfg.window(0.2), visible) // after the table: polls are not transactions
		rep.layer["repl.visible_poll_us"] = usOf(percentile(merged(visible), 50))
		rep.notef("repl.visible_poll_us: p50 of %d traced visibility samples", len(visible.v))
		if err := finishTraced(rep, cfg, e.tr.Load(), txns, elapsed, ratio(float64(refTxns), refElapsed), e.clients[0].lat, e.clients[1].lat); err != nil {
			return err
		}
	}
	e.check(rep)
	if cfg.trace {
		// After the check: transactions this phase breaks are not the run's.
		share := e.unserialized(cfg.window(0.1))
		rep.layer["bench.unserialized_failed_share"] = share
		rep.notef("bench.unserialized_failed_share: %.1f %% of operations fail in a final %.1f s phase without the benchmark's writer mutex", 100*share, cfg.window(0.1).Seconds())
	}
	for _, c := range e.clients {
		rep.attempted += c.attempted
		rep.failed += c.failed
	}
	return nil
}

// enableTrace swaps the rule's Where for the timed function condition,
// adds the probe subscriber on the rule's event and starts recording.
func (e *fireEnv) enableTrace() error {
	tr := newTracer(fireClients)
	e.tr.Store(tr)
	if err := e.leader.DropRule("audit_withdraw"); err != nil {
		return err
	}
	if err := e.defineRule(true); err != nil {
		return err
	}
	// Subscribed after the rule, so it is notified after the rule was
	// queued: body exit → this mark is write-back plus propagation.
	_, err := e.leader.Detector().Subscribe("withdrawn", sentinel.Recent, detector.SubscriberFunc(
		func(occ *sentinel.Occurrence, _ sentinel.Context) { tr.forTxn(occ.Txn).setMark() }))
	return err
}

// sampleLag reads the leader's replica-lag gauge every 2 ms.
func (e *fireEnv) sampleLag(rep *report) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		max := 0.0
		for {
			select {
			case <-quit:
				rep.layer["repl.lag_records_max"] = max
				return
			case <-tick.C:
				if s, ok := e.leader.Metrics().Get("sentinel_repl_lag_records"); ok && s.Value > max {
					max = s.Value
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

func (e *fireEnv) fillLayers(rep *report, d, fd regDelta, txns int64) {
	fillCommon(rep, d, float64(txns))
	st := e.tr.Load().table()
	// Waits the program timed itself, moved out of the stage they happen in.
	lockSum, lockN := d.hist("sentinel_lock_wait_seconds")
	st.carve(stLoad, stLockWait, lockSum*1e9, int64(lockN))
	forceSum, forceN := d.hist("sentinel_storage_group_commit_wait_seconds")
	st.carve(stCommit, stForceWait, forceSum*1e9, int64(forceN))
	waitSum, waitN := d.hist("sentinel_sched_task_wait_seconds")
	st.carve(stInvoke, stSchedWait, waitSum*1e9, int64(waitN))
	fillTraced(rep, st)
	l := rep.layer
	l["storage.device_fsync_us"] = e.fsyncUS
	l["repl.ship_bytes_per_txn"] = ratio(d.counter("sentinel_repl_ship_bytes_total"), float64(txns))
	l["repl.ship_records"] = d.counter("sentinel_repl_ship_records_total")
	l["repl.sheds"] = d.counter("sentinel_repl_sheds_total")
	l["repl.apply_records"] = fd.counter("sentinel_repl_apply_records_total")
	l["query.reverify_drop_ratio"] = ratio(d.counter("sentinel_query_reverify_drops_total"),
		d.counter("sentinel_query_index_probes_total")+d.counter("sentinel_query_reverify_drops_total"))
}

// check verifies the outputs: one AUDIT per committed transaction on
// leader and follower, every AUDIT seq matching its transaction, and
// balances conserved.
func (e *fireEnv) check(rep *report) {
	total := e.committedTotal()
	rep.attempted++
	for _, c := range e.clients {
		if last := sentinel.OID(c.auditOID.Load()); last != 0 {
			if err := e.awaitOnFollower(last, 10*time.Second); err != nil {
				rep.fail("follower never caught up: %v", err)
			}
		}
	}
	for name, db := range map[string]*sentinel.Database{"leader": e.leader, "follower": e.follower} {
		tx, err := db.BeginSnapshot()
		if err != nil {
			rep.fail("%s snapshot: %v", name, err)
			continue
		}
		audits, err := db.Query(tx, sentinel.Q{Class: "AUDIT"})
		if err != nil {
			rep.fail("%s AUDIT scan: %v", name, err)
		}
		perClient := make([]int64, fireClients)
		audited := 0.0
		bad := 0
		for _, r := range audits {
			seq := int64(r.Attrs["seq"].(float64))
			c, n := seq/fireSeqStride, seq%fireSeqStride
			if c < 0 || c >= fireClients || n < 1 || n > e.clients[c].committed {
				bad++
				continue
			}
			perClient[c]++
			audited += r.Attrs["amount"].(float64)
		}
		if int64(len(audits)) != total {
			rep.fail("%s holds %d AUDIT objects for %d committed transactions", name, len(audits), total)
		}
		if bad > 0 {
			rep.fail("%s: %d AUDIT objects carry a seq no committed transaction issued", name, bad)
		}
		if name == "leader" {
			for c, n := range perClient {
				if n != e.clients[c].committed {
					rep.fail("client %d committed %d transactions but %d distinct AUDIT seqs exist", c, e.clients[c].committed, n)
				}
			}
			accounts, err := db.Query(tx, sentinel.Q{Class: "ACCOUNT"})
			if err != nil {
				rep.fail("leader ACCOUNT scan: %v", err)
			}
			sum := 0.0
			for _, r := range accounts {
				sum += r.Attrs["balance"].(float64)
			}
			if want := fireBalance * float64(len(e.accounts)); sum+audited != want {
				rep.fail("balances not conserved: %.0f in accounts + %.0f audited != %.0f", sum, audited, want)
			}
		}
		_ = tx.Commit()
	}
	rep.notef("checked: %d committed transactions, AUDIT count and seqs on leader and follower, balances conserved", total)
}
