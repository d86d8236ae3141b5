package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A stage is one named slice of a transaction's wall time. Its metric
// name carries the layer as the prefix before the dot.
type stage uint8

const (
	stRoot    stage = iota // the operation itself; its self time is the benchmark's own
	stBody                 // the benchmark's method body
	stSection              // waiting for the benchmark's own writer mutex (fire.go, query.go)
	stBegin
	stCommit
	stAbort
	stLoad
	stNew
	stPersist
	stInvokeDispatch
	stPersistSignal // body exit → probe on a database with a store: write-back, then the signal
	stPropagate     // body exit / commit entry → last probe subscriber: the detector alone
	stDetFlush      // benchmark's finisher → commit/abort returned: the facade's event-graph flush
	stInvoke        // remainder of Invoke: scheduling point, rule dispatch, subtransaction begin/commit
	stCond
	stExists
	stAction
	stProbe
	stRange
	stAggregate
	stRaise
	stGEDFlush
	stOnGlobal
	stVisible
	// Stages below have no callback boundary; they are carved out of a
	// parent stage from the program's own histograms (see tracer.carve).
	stSchedWait
	stLockWait
	stForceWait
	numStages
)

var stageNames = [numStages]string{
	stRoot:           "unattributed_us",
	stBody:           "unattributed_us",
	stSection:        "bench.section_wait_us",
	stBegin:          "txn.begin_us",
	stCommit:         "txn.commit_self_us",
	stAbort:          "txn.abort_us",
	stLoad:           "object.load_us",
	stNew:            "object.new_us",
	stPersist:        "object.persist_us",
	stInvokeDispatch: "object.invoke_dispatch_us",
	stPersistSignal:  "object.persist_signal_us",
	stPropagate:      "detector.propagate_us",
	stDetFlush:       "detector.flush_us",
	stInvoke:         "rules.dispatch_us",
	stCond:           "rules.condition_us",
	stExists:         "query.exists_us",
	stAction:         "rules.action_us",
	stProbe:          "query.probe_us",
	stRange:          "query.range_us",
	stAggregate:      "query.aggregate_us",
	stRaise:          "ged.contribute_send_us",
	stGEDFlush:       "ged.flush_wait_us",
	stOnGlobal:       "ged.on_global_us",
	stVisible:        "repl.visible_poll_us",
	stSchedWait:      "sched.task_wait_us",
	stLockWait:       "lockmgr.wait_us",
	stForceWait:      "storage.force_wait_us",
}

func (s stage) layer() string {
	name := stageNames[s]
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return "bench"
}

// span is one timed interval. parent indexes the same operation's span
// list; -1 marks a callback span whose parent is found by containment
// among the client's own (strictly nested) spans when the operation ends.
type span struct {
	st         stage
	parent     int32
	client     bool // opened on the client goroutine, so properly nested
	start, end int64
}

// keptSpan is a span retained for the trace file.
type keptSpan struct {
	span
	op  uint64 // operation number within the client (shared by the spans of one request)
	tid int
}

type stageAgg struct {
	calls   int64
	totalNS float64 // self time, weighted so that overlapping children share wall time
	durNS   int64   // whole span duration, children included
	self    []int64 // unweighted self time per call, bounded ring
}

const selfRing = 1 << 15

func (a *stageAgg) record(durNS, selfNS int64, weighted float64) {
	a.durNS += durNS
	if a.self == nil {
		a.self = make([]int64, 0, selfRing)
	}
	if len(a.self) < selfRing {
		a.self = append(a.self, selfNS)
	} else {
		a.self[a.calls%selfRing] = selfNS
	}
	a.calls++
	a.totalNS += weighted
}

// tracer records spans in memory from the benchmark's own files, around
// the calls into each layer. A nil *tracer (and the nil *opTrace it hands
// out) turns every method into a no-op, so the workloads run one code
// path traced and untraced.
type tracer struct {
	base    time.Time
	clients []*opTrace
	keepMax int // spans kept per client for the trace file
}

func newTracer(clients int) *tracer {
	t := &tracer{base: time.Now(), keepMax: 20000}
	for i := 0; i < clients; i++ {
		t.clients = append(t.clients, &opTrace{tr: t, id: i})
	}
	return t
}

func (t *tracer) client(i int) *opTrace {
	if t == nil {
		return nil
	}
	return t.clients[i]
}

// forTxn finds the client currently running the given top-level
// transaction, for callbacks that only know the occurrence's txn id.
func (t *tracer) forTxn(id uint64) *opTrace {
	if t == nil {
		return nil
	}
	for _, c := range t.clients {
		if c.curTxn.Load() == id {
			return c
		}
	}
	return nil
}

// opTrace is one client's span recorder. Spans of the operation in
// flight live in a small buffer that is attributed and recycled when the
// operation ends; only the first keepMax spans are retained verbatim.
type opTrace struct {
	tr     *tracer
	id     int
	curTxn atomic.Uint64

	mu    sync.Mutex
	spans []span
	stack []int32
	op    uint64

	mark    int64 // latest probe-subscriber notification inside the open span
	finMark int64 // when the benchmark's own transaction finisher ran

	agg     [numStages]stageAgg
	rootNS  int64
	rootOps int64
	kept    []keptSpan

	// scratch for attribution
	kids  [][]int32
	share []float64
	pts   []int64
}

func (c *opTrace) now() int64 { return int64(time.Since(c.tr.base)) }

// open starts a span on the client goroutine, nested under the innermost
// open client span.
func (c *opTrace) open(st stage) int32 {
	if c == nil {
		return -1
	}
	now := c.now()
	c.mu.Lock()
	parent := int32(-1)
	if n := len(c.stack); n > 0 {
		parent = c.stack[n-1]
	}
	i := int32(len(c.spans))
	c.spans = append(c.spans, span{st: st, parent: parent, client: true, start: now})
	c.stack = append(c.stack, i)
	c.mu.Unlock()
	return i
}

// close ends the innermost open client span (which must be i).
func (c *opTrace) close(i int32) {
	if c == nil {
		return
	}
	now := c.now()
	c.mu.Lock()
	c.spans[i].end = now
	c.stack = c.stack[:len(c.stack)-1]
	root := len(c.stack) == 0
	if root {
		c.finishLocked()
	}
	c.mu.Unlock()
}

// add records a finished span from any goroutine. parent is the index an
// earlier add returned, or -1 to nest under whichever client span
// contains it.
func (c *opTrace) add(st stage, parent int32, start, end int64) int32 {
	if c == nil {
		return -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.stack) == 0 {
		return -1 // no operation open: nothing to nest under
	}
	i := int32(len(c.spans))
	c.spans = append(c.spans, span{st: st, parent: parent, start: start, end: end})
	return i
}

// setMark notes a probe-subscriber notification; the invoke and commit
// wrappers read it to close the detector's interval.
func (c *opTrace) setMark() {
	if c == nil {
		return
	}
	atomic.StoreInt64(&c.mark, c.now())
}

func (c *opTrace) takeMark() int64 {
	if c == nil {
		return 0
	}
	return atomic.SwapInt64(&c.mark, 0)
}

// finishLocked attributes the finished operation's spans to stages and
// recycles the buffer. Callers hold c.mu.
func (c *opTrace) finishLocked() {
	n := len(c.spans)
	// Parents of callback spans: the innermost client span containing them.
	for i := range c.spans {
		s := &c.spans[i]
		if s.parent >= 0 || s.client {
			continue
		}
		best := int32(0)
		for j := range c.spans {
			o := &c.spans[j]
			if o.client && j != i && o.start <= s.start && s.end <= o.end &&
				o.start >= c.spans[best].start {
				best = int32(j)
			}
		}
		s.parent = best
	}
	if cap(c.kids) < n {
		c.kids = make([][]int32, n)
	}
	c.kids = c.kids[:n]
	for i := range c.kids {
		c.kids[i] = c.kids[i][:0]
	}
	for i := 1; i < n; i++ {
		p := c.spans[i].parent
		c.kids[p] = append(c.kids[p], int32(i))
	}
	c.attribute(0, 1)
	root := c.spans[0]
	c.rootNS += root.end - root.start
	c.rootOps++
	if room := c.tr.keepMax - len(c.kept); room > 0 {
		for i, s := range c.spans {
			if i >= room {
				break
			}
			tid := c.id
			if !s.client {
				tid += 100 // callbacks may run on scheduler workers; keep them on their own track
			}
			c.kept = append(c.kept, keptSpan{span: s, op: c.op, tid: tid})
		}
	}
	c.op++
	c.spans = c.spans[:0]
}

// attribute charges span i's self time to its stage and recurses. Self
// time is the span's duration minus the part its children cover. Where
// children overlap one another (rule actions running in parallel on the
// scheduler pool), each instant is split evenly among the children active
// at that instant, so the stage totals still sum to the root's wall time.
func (c *opTrace) attribute(i int32, weight float64) {
	s := c.spans[i]
	kids := c.kids[i]
	dur := s.end - s.start
	if len(kids) == 0 {
		c.agg[s.st].record(dur, dur, weight*float64(dur))
		return
	}
	if cap(c.share) < len(c.spans) {
		c.share = make([]float64, len(c.spans))
	}
	share := c.share[:len(c.spans)]
	pts := c.pts[:0]
	for _, k := range kids {
		ks := c.spans[k]
		lo, hi := clamp(ks.start, s.start, s.end), clamp(ks.end, s.start, s.end)
		pts = append(pts, lo, hi)
		share[k] = 0
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a] < pts[b] })
	c.pts = pts
	covered := int64(0)
	for p := 0; p+1 < len(pts); p++ {
		a, b := pts[p], pts[p+1]
		if a == b {
			continue
		}
		active := 0
		for _, k := range kids {
			if c.spans[k].start <= a && b <= c.spans[k].end {
				active++
			}
		}
		if active == 0 {
			continue
		}
		covered += b - a
		for _, k := range kids {
			if c.spans[k].start <= a && b <= c.spans[k].end {
				share[k] += float64(b-a) / float64(active)
			}
		}
	}
	self := dur - covered
	c.agg[s.st].record(dur, self, weight*float64(self))
	// share[k] is written only at k's parent, so recursing (which writes
	// the shares of k's own children) leaves the siblings' entries intact.
	for _, k := range kids {
		kd := c.spans[k].end - c.spans[k].start
		w := 0.0
		if kd > 0 {
			w = weight * share[k] / float64(kd)
		}
		c.attribute(k, w)
	}
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// stageRow is one line of the printed stage table.
type stageRow struct {
	name    string
	layer   string
	calls   int64
	selfP50 float64 // µs; 0 for carved stages, which have no per-call samples
	totalUS float64
	share   float64 // of the summed root wall time
}

// stageTable merges the clients' aggregates. carve moves time between
// stages from the program's own histograms before the rows are built.
type stageTable struct {
	agg     [numStages]stageAgg
	carved  [numStages]bool // part of the stage's time was moved out: its per-call samples no longer describe it
	rootNS  int64
	rootOps int64
}

func (t *tracer) table() *stageTable {
	st := &stageTable{}
	if t == nil {
		return st
	}
	for _, c := range t.clients {
		c.mu.Lock()
		for i := range c.agg {
			a := &c.agg[i]
			st.agg[i].calls += a.calls
			st.agg[i].totalNS += a.totalNS
			st.agg[i].durNS += a.durNS
			st.agg[i].self = append(st.agg[i].self, a.self...)
		}
		st.rootNS += c.rootNS
		st.rootOps += c.rootOps
		c.mu.Unlock()
	}
	return st
}

// carve moves up to ns of self time from one stage to a stage that has no
// callback boundary of its own (a wait the program timed itself). It
// returns what was actually moved, so the table keeps its sum.
func (st *stageTable) carve(from, to stage, ns float64, calls int64) float64 {
	if ns > st.agg[from].totalNS {
		ns = st.agg[from].totalNS
	}
	if ns <= 0 {
		return 0
	}
	st.agg[from].totalNS -= ns
	st.carved[from] = true
	st.agg[to].totalNS += ns
	st.agg[to].calls += calls
	return ns
}

func (st *stageTable) rows() []stageRow {
	byName := map[string]*stageRow{}
	var order []string
	for i := stage(0); i < numStages; i++ {
		a := &st.agg[i]
		if a.calls == 0 && a.totalNS == 0 {
			continue
		}
		name := stageNames[i]
		r := byName[name]
		if r == nil {
			r = &stageRow{name: name, layer: i.layer()}
			byName[name] = r
			order = append(order, name)
		}
		r.calls += a.calls
		r.totalUS += a.totalNS / 1e3
		if len(a.self) > 0 && r.selfP50 == 0 && !st.carved[i] {
			sorted := append([]int64(nil), a.self...)
			sort.Slice(sorted, func(x, y int) bool { return sorted[x] < sorted[y] })
			r.selfP50 = usOf(percentile(sorted, 50))
		}
	}
	rows := make([]stageRow, 0, len(order))
	for _, n := range order {
		r := *byName[n]
		r.share = ratio(r.totalUS*1e3, float64(st.rootNS))
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].totalUS > rows[j].totalUS })
	return rows
}

// totalUS returns a stage's attributed self time in µs.
func (st *stageTable) totalUS(s stage) float64 { return st.agg[s].totalNS / 1e3 }

// perCallUS returns a stage's attributed self time per call in µs.
func (st *stageTable) perCallUS(s stage) float64 {
	return ratio(st.agg[s].totalNS/1e3, float64(st.agg[s].calls))
}

// layerShares sums the rows by layer.
func layerShares(rows []stageRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		out[r.layer] += r.share
	}
	return out
}

func printStageTable(w io.Writer, workload string, st *stageTable) {
	rows := st.rows()
	fmt.Fprintf(w, "stage table %s: %d traced operations, %.0f us wall in operations\n",
		workload, st.rootOps, float64(st.rootNS)/1e3)
	fmt.Fprintf(w, "  %-28s %-9s %10s %12s %14s %7s\n", "stage", "layer", "calls", "self_p50_us", "self_total_us", "share")
	for _, r := range rows {
		p50 := "-"
		if r.selfP50 > 0 {
			p50 = fmt.Sprintf("%.2f", r.selfP50)
		}
		fmt.Fprintf(w, "  %-28s %-9s %10d %12s %14.0f %6.1f%%\n", r.name, r.layer, r.calls, p50, r.totalUS, 100*r.share)
	}
	shares := layerShares(rows)
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	fmt.Fprintf(w, "  by layer:")
	for _, l := range layers {
		fmt.Fprintf(w, " %s=%.1f%%", l, 100*shares[l])
	}
	fmt.Fprintln(w)
}

// writeChromeTrace writes the retained spans in Chrome trace-event
// format (load in chrome://tracing or Perfetto).
func (t *tracer) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, c := range t.clients {
		c.mu.Lock()
		for _, k := range c.kept {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":\"%d.%d\",\"parent\":%d}}",
				stageNames[k.st], k.st.layer(), float64(k.start)/1e3, float64(k.end-k.start)/1e3, k.tid, c.id, k.op, k.parent)
		}
		c.mu.Unlock()
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
