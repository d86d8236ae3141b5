package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	sentinel "repro"
	"repro/internal/query"
)

// query_mix: indexed reads beside index-maintaining writes on a database
// whose working set is several times its buffer pool (the run prints the
// measured bytes). No rules.
const (
	qItems     = 50000
	qPerBucket = 10
	qSmall     = 2000
	qGroups    = 20
	qClients   = 2
	qLoadBatch = 2000
	qPool      = 256 // pages: 1 MiB
	qRangeSpan = 5   // buckets per range query: 50 rows
	qMoves     = 4   // objects an update transaction re-buckets
	qFinalKeys = 100
)

type queryEnv struct {
	cfg      config
	dir      string
	db       *sentinel.Database
	items    []sentinel.OID
	nBuckets int
	tr       atomic.Pointer[tracer]

	// The benchmark's own model of bucket membership. A read is checked
	// against it only when no update commit overlapped the read's snapshot
	// (inflight and version bracket the snapshot and the model lookup).
	count    []atomic.Int32
	inflight atomic.Int32
	version  atomic.Uint64

	// section serializes Begin..Persist of update transactions (see fire.go).
	section    sync.Mutex
	serialized bool
	clients    []*queryClient
}

type queryClient struct {
	id                int
	rnd               *rng
	all, reads, write *samples
	attempted, failed int64
	unverified        int64
	committed         int64
	failures          []string
}

func setupQuery(cfg config, dir string) (env, error) {
	dbDir := filepath.Join(dir, "db")
	if err := os.MkdirAll(dbDir, 0o755); err != nil {
		return nil, err
	}
	db, err := sentinel.Open(sentinel.Options{Dir: dbDir, PoolSize: qPool})
	if err != nil {
		return nil, err
	}
	e := &queryEnv{cfg: cfg, dir: dbDir, db: db, serialized: true}
	if err := e.load(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *queryEnv) load() error {
	for _, c := range []string{"ITEM", "SMALL"} {
		if _, err := e.db.DefineClass(c, "", false); err != nil {
			return err
		}
	}
	// Even a smoke run keeps 2 000 objects: with fewer, one object is
	// re-bucketed often enough to return to a bucket it left.
	n := max(e.cfg.scaled(qItems), 2000)
	e.nBuckets = n / qPerBucket
	e.count = make([]atomic.Int32, e.nBuckets)
	batch := func(total int, mk func(i int) (string, map[string]any), keep *[]sentinel.OID) error {
		for lo := 0; lo < total; lo += qLoadBatch {
			tx, err := e.db.Begin()
			if err != nil {
				return err
			}
			for i := lo; i < lo+qLoadBatch && i < total; i++ {
				class, attrs := mk(i)
				inst, err := e.db.New(tx, class, attrs)
				if err != nil {
					return err
				}
				if keep != nil {
					*keep = append(*keep, inst.OID)
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := batch(n, func(i int) (string, map[string]any) {
		b := i % e.nBuckets
		e.count[b].Add(1)
		return "ITEM", map[string]any{"sym": fmt.Sprintf("S%06d", i), "bucket": float64(b), "shadow": float64(b)}
	}, &e.items); err != nil {
		return err
	}
	if err := batch(e.cfg.scaled(qSmall), func(i int) (string, map[string]any) {
		return "SMALL", map[string]any{"grp": float64(i % qGroups), "val": float64(i)}
	}, nil); err != nil {
		return err
	}
	tx, err := e.db.Begin()
	if err != nil {
		return err
	}
	for _, kind := range []sentinel.IndexKind{sentinel.HashIndex, sentinel.OrderedIndex} {
		if _, err := e.db.CreateIndex(tx, "ITEM", "bucket", kind); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for c := 0; c < qClients; c++ {
		e.clients = append(e.clients, &queryClient{id: c, rnd: newRng(e.cfg.seed, uint64(c))})
	}
	return nil
}

func (e *queryEnv) close() { _ = e.db.Close() }

// dataBytes sums the database's page files: the working set the 1 MiB
// pool is up against.
func (e *queryEnv) dataBytes() int64 {
	var total int64
	_ = filepath.Walk(e.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.IsDir() && info.Name() == "wal" {
			return filepath.SkipDir // the log is not what the pool caches
		}
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func (c *queryClient) failf(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// read runs one snapshot query and checks its row count against the model.
func (e *queryEnv) read(c *queryClient, s sess, st stage, q sentinel.Q, want func() int) {
	v1 := e.version.Load()
	quiet := e.inflight.Load() == 0
	tx, err := s.beginSnapshot()
	if err != nil {
		c.failf("BeginSnapshot: %v", err)
		return
	}
	expect := want()
	quiet = quiet && e.inflight.Load() == 0 && e.version.Load() == v1
	qi := s.ct.open(st)
	rows, err := e.db.Query(tx, q)
	s.ct.close(qi)
	ci := s.ct.open(stCommit)
	_ = tx.Commit()
	s.ct.close(ci)
	switch {
	case err != nil:
		c.failf("query %v: %v", q.Where, err)
	case !quiet:
		c.unverified++
	case len(rows) != expect:
		c.failf("query %v returned %d rows, the model holds %d", q.Where, len(rows), expect)
	}
}

// update moves qMoves objects to new buckets in one transaction.
func (e *queryEnv) update(c *queryClient, s sess) {
	type move struct{ from, to int }
	var moves [qMoves]move
	if e.serialized {
		wait := s.ct.open(stSection)
		e.section.Lock()
		s.ct.close(wait)
	}
	tx, err := s.begin()
	for i := 0; err == nil && i < qMoves; i++ {
		var inst *sentinel.Instance
		if inst, err = s.load(tx, e.items[c.rnd.intn(len(e.items))]); err != nil {
			break
		}
		// Forward steps of at most a quarter turn: an object comes back to a
		// bucket it left only after four more moves. Re-keying an object
		// away from a value and back loses its posting today (README.md,
		// "What the workloads step around", 4).
		from := int(inst.Attrs()["bucket"].(float64))
		to := (from + 1 + c.rnd.intn(e.nBuckets/4)) % e.nBuckets
		moves[i] = move{from, to}
		inst.Attrs()["bucket"] = float64(to)
		inst.Attrs()["shadow"] = float64(to)
		err = s.persist(tx, inst)
	}
	if e.serialized {
		e.section.Unlock()
	}
	if err != nil {
		if tx != nil {
			_ = tx.Abort()
		}
		c.failf("update: %v", err)
		return
	}
	e.inflight.Add(1)
	err = s.finish(tx, true)
	if err == nil {
		for _, m := range moves {
			e.count[m.from].Add(-1)
			e.count[m.to].Add(1)
		}
		c.committed++
	}
	e.version.Add(1)
	e.inflight.Add(-1)
	if err != nil {
		c.failf("commit: %v", err)
	}
}

// oneOp draws the next operation from the client's stream: 60 % equality
// probe, 15 % ordered range, 5 % grouped aggregate, 20 % update.
func (e *queryEnv) oneOp(c *queryClient, record bool) {
	s := sess{e.db, e.tr.Load().client(c.id)}
	c.attempted++
	p := c.rnd.intn(100)
	root := s.ct.open(stRoot)
	t0 := time.Now()
	switch {
	case p < 60:
		k := c.rnd.intn(e.nBuckets)
		e.read(c, s, stProbe, sentinel.Q{Class: "ITEM", Where: query.Eq("bucket", float64(k))},
			func() int { return int(e.count[k].Load()) })
	case p < 75:
		lo := c.rnd.intn(e.nBuckets - qRangeSpan)
		e.read(c, s, stRange, sentinel.Q{Class: "ITEM", Where: query.Between("bucket", float64(lo), float64(lo+qRangeSpan-1))},
			func() int {
				n := 0
				for k := lo; k < lo+qRangeSpan; k++ {
					n += int(e.count[k].Load())
				}
				return n
			})
	case p < 80:
		groups := qGroups
		if small := e.cfg.scaled(qSmall); small < groups {
			groups = small
		}
		e.read(c, s, stAggregate, sentinel.Q{Class: "SMALL", GroupBy: []string{"grp"},
			Aggs: []sentinel.Agg{{Op: query.Count}, {Op: query.Sum, Attr: "val"}}},
			func() int { return groups })
	default:
		e.update(c, s)
	}
	s.ct.close(root)
	if record {
		d := c.all.addAt(t0)
		if p < 80 {
			c.reads.add(d)
		} else {
			c.write.add(d)
		}
	}
}

func (e *queryEnv) throughput(d time.Duration, record bool) (elapsed float64, mallocs uint64, ops int64) {
	before := e.attemptedTotal()
	elapsed, mallocs = runClients(qClients, d, func(c int, stop func() bool) {
		for !stop() {
			e.oneOp(e.clients[c], record)
		}
	})
	return elapsed, mallocs, e.attemptedTotal() - before
}

// unserialized runs the mix for d without the section mutex and returns
// the share of operations that failed (see fireEnv.unserialized).
func (e *queryEnv) unserialized(d time.Duration) float64 {
	type counts struct {
		attempted, failed int64
		failures          int
	}
	before := make([]counts, len(e.clients))
	for i, c := range e.clients {
		before[i] = counts{c.attempted, c.failed, len(c.failures)}
	}
	e.serialized = false
	e.throughput(d, false)
	e.serialized = true
	var attempted, failed int64
	for i, c := range e.clients {
		attempted += c.attempted - before[i].attempted
		failed += c.failed - before[i].failed
		c.attempted, c.failed, c.failures = before[i].attempted, before[i].failed, c.failures[:before[i].failures]
	}
	return ratio(float64(failed), float64(attempted))
}

func (e *queryEnv) attemptedTotal() int64 {
	var n int64
	for _, c := range e.clients {
		n += c.attempted
	}
	return n
}

func (e *queryEnv) run(rep *report) error {
	cfg := e.cfg
	rep.notef("%s", envLine(0))
	bytes := e.dataBytes()
	rep.notef("sizes: %d ITEM objects in %d buckets (hash + ordered index on bucket, unindexed shadow twin), %d SMALL objects, pool %d pages (%d bytes), database files %d bytes (%.1fx the pool), %d closed-loop clients whose updates the benchmark serializes up to Commit, SyncWAL off",
		len(e.items), e.nBuckets, cfg.scaled(qSmall), qPool, qPool*4096, bytes, float64(bytes)/float64(qPool*4096), qClients)
	// The benchmark's own buffers are not part of the program's set-up.
	for _, c := range e.clients {
		capacity := int(cfg.seconds*20000) + 1000
		c.all, c.reads, c.write = newTimedSamples(capacity), newSamples(capacity), newSamples(capacity)
	}
	e.throughput(cfg.window(0.1), false)

	if !cfg.trace {
		elapsed, mallocs, ops := e.throughput(cfg.window(1), true)
		rep.e2e["txn_per_s"] = steadyRate(e.clients[0].all, e.clients[1].all)
		rep.e2e["allocs_per_txn"] = ratio(float64(mallocs), float64(ops))
		latencyMetrics(rep, "txn", rep.e2e, e.clients[0].all, e.clients[1].all)
		latencyMetrics(rep, "read", rep.e2e, e.clients[0].reads, e.clients[1].reads)
		latencyMetrics(rep, "write", rep.e2e, e.clients[0].write, e.clients[1].write)
		rep.notef("read_*: read-only snapshot query transactions; write_*: update transactions, wait for the benchmark's writer mutex -> Commit returned (4 objects re-bucketed, both indexes maintained)")
		rep.notef("window %.2f s closed loop, %d operations", elapsed, ops)
	} else {
		refElapsed, _, refOps := e.throughput(cfg.window(0.2), false)
		e.tr.Store(newTracer(qClients))
		before := snapRegistry(e.db.Metrics())
		elapsed, _, ops := e.throughput(cfg.window(0.7), true)
		d := regDelta{before, snapRegistry(e.db.Metrics())}
		fillCommon(rep, d, float64(ops))
		st := e.tr.Load().table()
		lockSum, lockN := d.hist("sentinel_lock_wait_seconds")
		st.carve(stLoad, stLockWait, lockSum*1e9, int64(lockN))
		fillTraced(rep, st)
		l := rep.layer
		l["query.reverify_drop_ratio"] = ratio(d.counter("sentinel_query_reverify_drops_total"),
			d.counter("sentinel_query_index_probes_total")+d.counter("sentinel_query_index_range_scans_total")+d.counter("sentinel_query_reverify_drops_total"))
		l["query.read_p50_us"] = usOf(percentile(merged(e.clients[0].reads, e.clients[1].reads), 50))
		l["query.write_p50_us"] = usOf(percentile(merged(e.clients[0].write, e.clients[1].write), 50))
		if err := finishTraced(rep, cfg, e.tr.Load(), ops, elapsed, ratio(float64(refOps), refElapsed), e.clients[0].all, e.clients[1].all); err != nil {
			return err
		}
	}
	e.check(rep)
	if cfg.trace {
		// After the check: what this phase breaks is not the run's.
		share := e.unserialized(cfg.window(0.1))
		rep.layer["bench.unserialized_failed_share"] = share
		rep.notef("bench.unserialized_failed_share: %.1f %% of operations fail in a final %.1f s phase without the benchmark's writer mutex", 100*share, cfg.window(0.1).Seconds())
	}
	var unverified int64
	for _, c := range e.clients {
		rep.attempted += c.attempted
		rep.failed += c.failed
		unverified += c.unverified
		for _, f := range c.failures {
			rep.failures = append(rep.failures, f)
		}
	}
	rep.notef("reads overlapping an update commit and so not compared with the model: %d of %d operations", unverified, rep.attempted)
	return nil
}

// check scans the extent once, rebuilding bucket membership from the
// unindexed shadow attribute, and compares it with the model for every
// bucket and with index probes and ranges on a sample of keys.
func (e *queryEnv) check(rep *report) {
	rep.attempted++
	tx, err := e.db.BeginSnapshot()
	if err != nil {
		rep.fail("snapshot: %v", err)
		return
	}
	defer func() { _ = tx.Commit() }()
	scanned := make([]int, e.nBuckets)
	twins := 0
	err = e.db.ForEach(tx, "ITEM", false, func(inst *sentinel.Instance) bool {
		b := int(inst.Attr("shadow").(float64))
		scanned[b]++
		if inst.Attr("bucket") != inst.Attr("shadow") {
			twins++
		}
		return true
	})
	if err != nil {
		rep.fail("extent scan: %v", err)
		return
	}
	if twins > 0 {
		rep.fail("%d objects whose bucket and shadow attributes differ", twins)
	}
	for b := range scanned {
		if scanned[b] != int(e.count[b].Load()) {
			rep.fail("bucket %d holds %d objects by scan, %d in the model", b, scanned[b], e.count[b].Load())
			break
		}
	}
	r := newRng(e.cfg.seed, 99)
	for i := 0; i < qFinalKeys; i++ {
		k := r.intn(e.nBuckets - qRangeSpan)
		rows, err := e.db.Query(tx, sentinel.Q{Class: "ITEM", Where: query.Eq("bucket", float64(k))})
		if err != nil || len(rows) != scanned[k] {
			rep.fail("final probe of bucket %d: %d rows by index, %d by scan (%v)", k, len(rows), scanned[k], err)
			break
		}
		want := 0
		for j := k; j < k+qRangeSpan; j++ {
			want += scanned[j]
		}
		rows, err = e.db.Query(tx, sentinel.Q{Class: "ITEM", Where: query.Between("bucket", float64(k), float64(k+qRangeSpan-1))})
		if err != nil || len(rows) != want {
			rep.fail("final range from bucket %d: %d rows by index, %d by scan (%v)", k, len(rows), want, err)
			break
		}
	}
	rep.notef("checked: every read against the model, index = scan for all %d buckets by one extent scan and on %d sampled keys (probe and range)", e.nBuckets, qFinalKeys)
}
