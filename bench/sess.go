package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	sentinel "repro"
	"repro/internal/txn"
)

// sess is one client's view of a database: every facade call goes through
// it so that a traced run records a span at each layer boundary. With a
// nil trace the wrappers add one nil check per call.
type sess struct {
	db *sentinel.Database
	ct *opTrace
}

func (s sess) begin() (*sentinel.Txn, error) {
	i := s.ct.open(stBegin)
	tx, err := s.db.Begin()
	s.ct.close(i)
	if err == nil && s.ct != nil {
		s.ct.curTxn.Store(tx.ID())
		// Finishers run last-registered first and the facade registered its
		// event-graph flush inside Begin, so this one runs just before the
		// flush: from its mark to the return of Commit/Abort is the flush.
		ct := s.ct
		tx.OnFinish(func(txn.Status) { ct.finMark = ct.now() })
	}
	return tx, err
}

func (s sess) beginSnapshot() (*sentinel.Txn, error) {
	i := s.ct.open(stBegin)
	tx, err := s.db.BeginSnapshot()
	s.ct.close(i)
	return tx, err
}

func (s sess) load(tx *sentinel.Txn, oid sentinel.OID) (*sentinel.Instance, error) {
	i := s.ct.open(stLoad)
	inst, err := s.db.Load(tx, oid)
	s.ct.close(i)
	return inst, err
}

func (s sess) persist(tx *sentinel.Txn, inst *sentinel.Instance) error {
	i := s.ct.open(stPersist)
	err := s.db.Persist(tx, inst)
	s.ct.close(i)
	return err
}

// invoke calls a method and, when traced, splits the call at the marks
// the method body and the probe subscriber left: entry → body entry is
// the object layer's dispatch, body exit → probe is post (the detector's
// propagation, preceded by the write-back when the database has a store),
// and what remains outside the rule callbacks is rule dispatch.
func (s sess) invoke(tx *sentinel.Txn, inst *sentinel.Instance, method string, post stage, args ...any) error {
	i := s.ct.open(stInvoke)
	s.ct.takeMark()
	_, err := s.db.Invoke(tx, inst, method, args...)
	if s.ct != nil {
		start, bodyStart, bodyEnd := s.ct.invokeMarks(i)
		if bodyStart > 0 {
			s.ct.add(stInvokeDispatch, i, start, bodyStart)
			if m := s.ct.takeMark(); m >= bodyEnd {
				s.ct.add(post, i, bodyEnd, m)
			}
		}
	}
	s.ct.close(i)
	return err
}

// body brackets a method body; the workloads' method bodies call it.
func (ct *opTrace) body() func() {
	if ct == nil {
		return func() {}
	}
	i := ct.open(stBody)
	return func() { ct.close(i) }
}

// invokeMarks returns the start of span i and the interval of the body
// span nested directly under it (zeros when the body never ran).
func (c *opTrace) invokeMarks(i int32) (start, bodyStart, bodyEnd int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start = c.spans[i].start
	for j := int(i) + 1; j < len(c.spans); j++ {
		if sp := c.spans[j]; sp.st == stBody && sp.parent == i {
			return start, sp.start, sp.end
		}
	}
	return start, 0, 0
}

// finish commits or aborts and, when traced, splits the call: entry →
// last probe is the detector propagating the transaction event, the
// benchmark's finisher mark → return is the event-graph flush.
func (s sess) finish(tx *sentinel.Txn, commit bool) error {
	st := stCommit
	if !commit {
		st = stAbort
	}
	i := s.ct.open(st)
	s.ct.takeMark()
	if s.ct != nil {
		s.ct.finMark = 0
	}
	var err error
	if commit {
		err = tx.Commit()
	} else {
		err = tx.Abort()
	}
	if s.ct != nil {
		end := s.ct.now()
		start, _, _ := s.ct.invokeMarks(i)
		if m := s.ct.takeMark(); m > start {
			s.ct.add(stPropagate, i, start, m)
		}
		if fm := s.ct.finMark; fm > 0 {
			s.ct.add(stDetFlush, i, fm, end)
		}
	}
	s.ct.close(i)
	return err
}

// cb brackets a rule callback (condition, action, query inside one) that
// may run on a scheduler worker. parent is the index an enclosing cb
// returned, or -1 at top level.
func (c *opTrace) cb(st stage, parent int32) (idx int32, done func()) {
	if c == nil {
		return -1, func() {}
	}
	start := c.now()
	idx = c.add(st, parent, start, start)
	return idx, func() {
		if idx < 0 {
			return
		}
		end := c.now()
		c.mu.Lock()
		if int(idx) < len(c.spans) {
			c.spans[idx].end = end
		}
		c.mu.Unlock()
	}
}

// runClients runs fn(client) in n goroutines until the deadline passes
// and returns the wall time and the process's allocation count over the
// interval. fn returns when it observes stop() true.
func runClients(n int, d time.Duration, fn func(client int, stop func() bool)) (elapsed float64, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	stop := func() bool { return !time.Now().Before(deadline) }
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, stop)
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs
}

// latencyMetrics fills <prefix>_p50_us and <prefix>_p99_us from latency
// series kept in arrival order, and states the sample count, the slicing
// and the percentile the tail really is.
func latencyMetrics(rep *report, prefix string, into map[string]float64, parts ...*samples) {
	p50, tail, used, n, k := steadyPercentiles(parts...)
	into[prefix+"_p50_us"] = p50
	into[prefix+"_p99_us"] = tail
	rep.notef("%s: %d samples, p50 %.1f us and p%.2f %.1f us in the calm slices (of %d for the median, %d for the tail)",
		prefix, n, p50, used, tail, sliceCount(n, 250, 20), k)
}

// measureDeviceFsync times a raw 4 KiB overwrite + fdatasync on a scratch
// file in dir: the sandbox's disk, not the program.
func measureDeviceFsync(dir string) (float64, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	block := make([]byte, 4096)
	// Reserve the blocks first so the timed forces are data-only, as the
	// WAL's are after preallocation.
	for off := int64(0); off < 64*4096; off += 4096 {
		if _, err := f.WriteAt(block, off); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	var us []float64
	for i := 0; i < 32; i++ {
		block[0] = byte(i)
		if _, err := f.WriteAt(block, int64(i)*4096); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := dataSync(f); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(us)
	return us[len(us)/2], nil
}

// fillCommon copies the registry-backed metrics every workload with a
// local database reports.
func fillCommon(rep *report, d regDelta, txns float64) {
	l := rep.layer
	l["detector.signals"] = d.counter("sentinel_detector_signals_total")
	l["detector.detections"] = d.counter("sentinel_detector_detections_total")
	hits := d.counter("sentinel_detector_fastpath_hits_total")
	nosub := d.counter("sentinel_detector_fastpath_nosub_total")
	stale := d.counter("sentinel_detector_fastpath_stale_total")
	l["detector.fastpath_hit_ratio"] = ratio(hits+nosub, hits+nosub+stale)
	l["detector.flush_fanout"] = ratio(d.counter("sentinel_detector_flush_fanout_total"), d.counter("sentinel_detector_txn_flushes_total"))
	l["detector.nodes_live"] = d.gauge("sentinel_detector_nodes_live")
	l["detector.pending_occurrences"] = d.gauge("sentinel_detector_pending_occurrences")
	l["detector.masked_drops"] = d.counter("sentinel_detector_masked_drops_total")
	l["sched.task_wait_us"] = d.histMeanUS("sentinel_sched_task_wait_seconds")
	l["sched.task_run_us"] = d.histMeanUS("sentinel_sched_task_run_seconds")
	l["sched.tasks"] = d.counter("sentinel_sched_tasks_total")
	l["sched.steals"] = d.counter("sentinel_sched_steals_total")
	l["rules.fires_immediate"] = d.counter("sentinel_rules_fires_immediate_total")
	l["rules.fires_deferred"] = d.counter("sentinel_rules_fires_deferred_total")
	l["rules.retries"] = d.counter("sentinel_rules_retries_total")
	l["rules.sheds"] = d.counter("sentinel_rules_sheds_total")
	l["rules.errors"] = d.counter("sentinel_rules_errors_total")
	l["txn.commits"] = d.counter("sentinel_txn_commits_total")
	l["txn.aborts"] = d.counter("sentinel_txn_aborts_total")
	l["txn.sub_begins"] = d.counter("sentinel_txn_sub_begins_total")
	l["lockmgr.wait_us"] = d.histMeanUS("sentinel_lock_wait_seconds")
	l["lockmgr.grants"] = d.counter("sentinel_lock_grants_total")
	l["lockmgr.waits"] = d.counter("sentinel_lock_waits_total")
	l["lockmgr.deadlocks"] = d.counter("sentinel_lock_deadlocks_total")
	l["lockmgr.bypasses"] = d.counter("sentinel_lock_bypasses_total")
	// Present only on databases with a store; absent names read as zero.
	l["query.index_probes"] = d.counter("sentinel_query_index_probes_total")
	l["query.range_scans"] = d.counter("sentinel_query_index_range_scans_total")
	l["query.extent_scans"] = d.counter("sentinel_query_extent_scans_total")
	l["query.index_entries_written"] = d.counter("sentinel_query_index_entries_written_total")
	l["storage.group_commit_batch"] = d.histMean("sentinel_storage_group_commit_batch_size")
	l["storage.fsyncs_per_txn"] = ratio(d.counter("sentinel_storage_wal_fsyncs_total"), txns)
	l["storage.wal_bytes_per_txn"] = ratio(d.counter("sentinel_storage_wal_append_bytes_total"), txns)
	bh, bm := d.counter("sentinel_storage_buffer_hits_total"), d.counter("sentinel_storage_buffer_misses_total")
	l["storage.buffer_hit_ratio"] = ratio(bh, bh+bm)
	l["storage.page_reads"] = d.counter("sentinel_storage_page_reads_total")
	l["storage.page_writes"] = d.counter("sentinel_storage_page_writes_total")
	l["storage.snapshot_reads"] = d.counter("sentinel_storage_read_snapshot_total")
	l["storage.version_chain_len"] = d.histMean("sentinel_storage_version_chain_length")
	l["storage.gc_reclaimed"] = d.counter("sentinel_storage_gc_versions_reclaimed_total")
}

// fillTraced copies the stage table into the per-layer metrics: each
// stage's self time per call, plus how much of the operations' wall time
// the named layers account for.
func fillTraced(rep *report, st *stageTable) {
	rep.table = st
	for s := stBody + 1; s < numStages; s++ { // every stage but root and body, which are unattributed_us
		if st.agg[s].calls == 0 {
			continue
		}
		rep.layer[stageNames[s]] = st.perCallUS(s)
	}
	un := st.totalUS(stRoot) + st.totalUS(stBody)
	// The wait for the benchmark's writer mutex is a row of its own in the
	// table, and no layer of the program's: it counts against the share.
	own := un + st.totalUS(stSection)
	rep.layer["unattributed_us"] = ratio(un, float64(st.rootOps))
	rep.layer["attributed_share"] = 1 - ratio(own*1e3, float64(st.rootNS))
	rep.layer["txn.commit_us"] = ratio(float64(st.agg[stCommit].durNS)/1e3, float64(st.agg[stCommit].calls))
}

// finishTraced reports the traced window as a whole — its rate and median
// latency against the untraced reference window of the same process —
// and writes the retained spans to trace-<workload>.json.
func finishTraced(rep *report, cfg config, tr *tracer, ops int64, elapsed, refRate float64, lat ...*samples) error {
	l := rep.layer
	l["traced_txn_per_s"] = ratio(float64(ops), elapsed)
	l["traced_txn_p50_us"], l["traced_txn_p99_us"], _, _, _ = steadyPercentiles(lat...)
	l["trace_overhead_pct"] = 100 * (1 - ratio(l["traced_txn_per_s"], refRate))
	rep.notef("traced window %.2f s, %d operations; untraced reference window %.1f operations/s", elapsed, ops, refRate)
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := tr.writeChromeTrace(path); err != nil {
		return err
	}
	rep.notef("trace written to %s", path)
	return nil
}
