package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	sentinel "repro"
	"repro/internal/detector"
	"repro/internal/workload"
)

// detect_composite: an in-memory database, 512 primitive events and 2000
// Snoop rules over them, driven by internal/workload's skewed stream
// through db.Invoke. Storage, repl and query do nothing here.
const (
	detClasses    = 64
	detMethods    = 8
	detRules      = 2000
	detPerClass   = 4 // instances per class
	detEventsTxn  = 20
	detAbortMille = 50
	detPrefixTxns = 400 // transactions replayed for the determinism check
	// detHotShare is the percentage of rule operands drawn from class W0,
	// which the skewed stream hits with 80 % of its events. It is what sets
	// the achieved firings per event (recorded as rules.firings_per_event).
	detHotShare = 12
	// detRuleSeed generates the rule base. Like the schema it is part of
	// the workload's definition and the same on every run: how often rules
	// fire depends on which operands a seed happens to draw (+-15 % between
	// seeds), and runs with different seeds must measure the same work.
	// --seed drives the event stream.
	detRuleSeed = 1
)

type detKind uint8

const (
	kSeq detKind = iota
	kAnd
	kOr
	kNot
	kAStar
	kAny
)

// detRule is one generated rule. flat rules have primitive operands a and
// b only and are what the FIFO simulation covers.
type detRule struct {
	name     string
	event    string
	kind     detKind
	a, b     int
	flat     bool
	ctx      sentinel.Context
	deferred bool
}

func primName(ev int) string { return fmt.Sprintf("e%d_%d", ev/detMethods, ev%detMethods) }

var ctxWords = [4]string{"RECENT", "CHRONICLE", "CONTINUOUS", "CUMULATIVE"}

// genDetectRules generates the rule base and its Snoop source from a
// seed: 40 % SEQ, 20 % AND, 10 % each OR, NOT, A*, ANY(2,...); contexts
// round-robin; 30 % deferred; 30 % of rules reuse an earlier rule's event
// and 20 % of new SEQ/AND expressions take an earlier composite as an
// operand, so the event graph shares nodes.
func genDetectRules(seed uint64, classes, nRules int) ([]detRule, string) {
	r := newRng(seed, 100)
	nEvents := classes * detMethods
	pick := func(not ...int) int {
		for {
			ev := r.intn(nEvents)
			if r.intn(100) < detHotShare {
				ev = r.intn(detMethods)
			}
			ok := true
			for _, n := range not {
				ok = ok && ev != n
			}
			if ok {
				return ev
			}
		}
	}
	var sb strings.Builder
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&sb, "class %s reactive {\n", workload.ClassName(c))
		for m := 0; m < detMethods; m++ {
			fmt.Fprintf(&sb, "  event end(%s) %s();\n", primName(c*detMethods+m), workload.MethodName(m))
		}
		sb.WriteString("}\n")
	}
	rules := make([]detRule, 0, nRules)
	byKind := map[detKind][]int{}
	var flatComposites []int // earlier flat SEQ/AND/OR rules, usable as operands
	for i := 0; i < nRules; i++ {
		var kind detKind
		switch p := r.intn(100); {
		case p < 40:
			kind = kSeq
		case p < 60:
			kind = kAnd
		case p < 70:
			kind = kOr
		case p < 80:
			kind = kNot
		case p < 90:
			kind = kAStar
		default:
			kind = kAny
		}
		rule := detRule{
			name: fmt.Sprintf("r%d", i), kind: kind, a: -1, b: -1,
			ctx: sentinel.Context(i % 4), deferred: r.intn(10) < 3,
		}
		if prev := byKind[kind]; len(prev) > 0 && r.intn(100) < 30 {
			src := rules[prev[r.intn(len(prev))]]
			rule.event, rule.a, rule.b, rule.flat = src.event, src.a, src.b, src.flat
		} else {
			rule.event = fmt.Sprintf("x%d", i)
			a := pick()
			b := pick(a)
			c := pick(a, b)
			an, bn, cn := primName(a), primName(b), primName(c)
			var expr string
			switch kind {
			case kSeq, kAnd:
				rule.a, rule.b, rule.flat = a, b, true
				if len(flatComposites) > 0 && r.intn(100) < 20 {
					an = rules[flatComposites[r.intn(len(flatComposites))]].event
					rule.flat = false
				}
				op := ">>"
				if kind == kAnd {
					op = "and"
				}
				expr = fmt.Sprintf("%s %s %s", an, op, bn)
			case kOr:
				rule.a, rule.b, rule.flat = a, b, true
				expr = fmt.Sprintf("%s or %s", an, bn)
			case kNot:
				expr = fmt.Sprintf("not(%s)[%s, %s]", bn, an, cn)
			case kAStar:
				expr = fmt.Sprintf("A*(%s, %s, %s)", an, bn, cn)
			case kAny:
				expr = fmt.Sprintf("any(2, %s, %s, %s)", an, bn, cn)
			}
			fmt.Fprintf(&sb, "event %s = %s;\n", rule.event, expr)
			byKind[kind] = append(byKind[kind], i)
			if rule.flat {
				flatComposites = append(flatComposites, i)
			}
		}
		coupling := "IMMEDIATE"
		if rule.deferred {
			coupling = "DEFERRED"
		}
		fmt.Fprintf(&sb, "rule %s(%s, true, count, %s, %s);\n", rule.name, rule.event, ctxWords[rule.ctx], coupling)
		rules = append(rules, rule)
	}
	return rules, sb.String()
}

// simulated reports whether the FIFO simulation covers the rule: OR over
// two primitives in any context, SEQ and AND over two primitives in
// CHRONICLE.
func (r detRule) simulated() bool {
	return r.flat && (r.kind == kOr || r.ctx == sentinel.Chronicle)
}

type detStreamCfg struct {
	seed      uint64
	classes   int
	classIdx  map[string]int
	methodIdx map[string]int
}

func (c detStreamCfg) generator() *workload.Generator {
	return workload.New(workload.Config{
		Seed: c.seed, Classes: c.classes, MethodsPerClass: detMethods, Objects: c.classes * detPerClass,
		EventsPerTxn: detEventsTxn, AbortPerMille: detAbortMille, Skew: true,
	})
}

// simulate replays the first nTxns transactions of the stream against
// the simulated rules: FIFO pairing per transaction (the event graph is
// flushed when a transaction ends), a deferred rule firing once at commit
// if its event was detected at all. It returns firings per rule and the
// number of method events.
func simulate(sc detStreamCfg, rules []detRule, nTxns int64) (fired []uint64, events int64) {
	fired = make([]uint64, len(rules))
	byEvent := map[int][]int{}
	for i, r := range rules {
		if r.simulated() {
			byEvent[r.a] = append(byEvent[r.a], i)
			byEvent[r.b] = append(byEvent[r.b], i)
		}
	}
	qa, qb, det := make([]int, len(rules)), make([]int, len(rules)), make([]int, len(rules))
	g := sc.generator()
	for done := int64(0); done < nTxns; {
		st := g.Next()
		switch st.Kind {
		case workload.StepMethod:
			events++
			ev := sc.eventIndex(st)
			for _, i := range byEvent[ev] {
				r := rules[i]
				isA := ev == r.a
				switch {
				case r.kind == kOr:
					det[i]++
				case r.kind == kSeq && isA:
					qa[i]++
				case r.kind == kSeq && qa[i] > 0:
					qa[i]--
					det[i]++
				case r.kind == kAnd && isA && qb[i] > 0:
					qb[i]--
					det[i]++
				case r.kind == kAnd && isA:
					qa[i]++
				case r.kind == kAnd && qa[i] > 0:
					qa[i]--
					det[i]++
				case r.kind == kAnd:
					qb[i]++
				}
			}
		case workload.StepCommit, workload.StepAbort:
			done++
			for i, r := range rules {
				switch {
				case !r.deferred:
					fired[i] += uint64(det[i])
				case det[i] > 0 && st.Kind == workload.StepCommit:
					fired[i]++
				}
				qa[i], qb[i], det[i] = 0, 0, 0
			}
		}
	}
	return fired, events
}

// eventIndex maps a generated step to its primitive event.
func (c detStreamCfg) eventIndex(st workload.Step) int {
	return c.classIdx[st.Class]*detMethods + c.methodIdx[st.Method]
}

func newDetStream(seed uint64, classes int) detStreamCfg {
	c := detStreamCfg{seed: seed, classes: classes, classIdx: map[string]int{}, methodIdx: map[string]int{}}
	for i := 0; i < classes; i++ {
		c.classIdx[workload.ClassName(i)] = i
	}
	for m := 0; m < detMethods; m++ {
		c.methodIdx[workload.MethodName(m)] = m
	}
	return c
}

type detectEnv struct {
	cfg       config
	db        *sentinel.Database
	stream    detStreamCfg
	rules     []detRule
	handles   []*sentinel.Rule
	instances [][]*sentinel.Instance // [class][k]
	methods   [detMethods]string
	loadS     float64

	tr atomic.Pointer[tracer]

	txnLat    *samples
	attempted int64
	failed    int64
	events    int64
	// executed lists (generator restarts, transactions run) so the
	// simulation can replay exactly what the program saw.
	executed []int64
	prefix   []uint64 // per-rule firings after the first detPrefixTxns of a stream
}

func setupDetect(cfg config, dir string) (env, error) {
	db, err := sentinel.Open(sentinel.Options{})
	if err != nil {
		return nil, err
	}
	classes := cfg.scaled(detClasses)
	if classes < 2 {
		classes = 2
	}
	e := &detectEnv{cfg: cfg, db: db, stream: newDetStream(cfg.seed, classes)}
	db.BindAction("count", func(x *sentinel.Execution) error {
		_, done := e.tr.Load().forTxn(x.Occurrence.Txn).cb(stAction, -1)
		done()
		return nil
	})
	var src string
	e.rules, src = genDetectRules(detRuleSeed, classes, cfg.scaled(detRules))
	t0 := time.Now()
	if err := db.LoadRules(src); err != nil {
		e.close()
		return nil, fmt.Errorf("LoadRules: %w", err)
	}
	e.loadS = time.Since(t0).Seconds()
	for _, r := range e.rules {
		h, err := db.GetRule(r.name)
		if err != nil {
			e.close()
			return nil, err
		}
		e.handles = append(e.handles, h)
	}
	for m := 0; m < detMethods; m++ {
		e.methods[m] = workload.MethodName(m)
	}
	tx, err := db.Begin()
	if err != nil {
		e.close()
		return nil, err
	}
	for c := 0; c < classes; c++ {
		cls, err := db.Class(workload.ClassName(c))
		if err != nil {
			e.close()
			return nil, err
		}
		for m := 0; m < detMethods; m++ {
			cls.DefineMethod(sentinel.Method{Name: e.methods[m], Body: func(self *sentinel.Self, _ []any) (any, error) {
				e.tr.Load().forTxn(self.Txn.ID()).body()()
				return nil, nil
			}})
		}
		var insts []*sentinel.Instance
		for k := 0; k < detPerClass; k++ {
			inst, err := db.New(tx, cls.Name, nil)
			if err != nil {
				e.close()
				return nil, err
			}
			insts = append(insts, inst)
		}
		e.instances = append(e.instances, insts)
	}
	if err := tx.Commit(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *detectEnv) close() { _ = e.db.Close() }

func (e *detectEnv) firedCounts() []uint64 {
	out := make([]uint64, len(e.handles))
	for i, h := range e.handles {
		out[i] = h.Fired()
	}
	return out
}

// drive runs whole transactions of the stream from g until limit
// transactions ran or, with limit 0, until stop reports true after a
// transaction ended. It returns how many it ran.
func (e *detectEnv) drive(g *workload.Generator, stop func() bool, limit int64, record bool) int64 {
	s := sess{e.db, e.tr.Load().client(0)}
	var (
		n    int64
		tx   *sentinel.Txn
		root int32
		t0   time.Time
	)
	for {
		st := g.Next()
		switch st.Kind {
		case workload.StepBegin:
			root = s.ct.open(stRoot)
			t0 = time.Now()
			var err error
			if tx, err = s.begin(); err != nil {
				e.failed++
				tx = nil
			}
		case workload.StepMethod:
			if tx == nil {
				continue
			}
			e.events++
			ev := e.stream.eventIndex(st)
			inst := e.instances[ev/detMethods][int(st.Object)%detPerClass]
			if err := s.invoke(tx, inst, e.methods[ev%detMethods], stPropagate); err != nil {
				e.failed++
			}
		case workload.StepCommit, workload.StepAbort:
			e.attempted++
			n++
			if tx != nil {
				if err := s.finish(tx, st.Kind == workload.StepCommit); err != nil {
					e.failed++
				}
				if record {
					e.txnLat.addAt(t0)
				}
			}
			s.ct.close(root)
			if limit > 0 && n == limit || limit == 0 && stop() {
				return n
			}
		}
	}
}

// window runs a fresh stream from the seed for d and, once the
// determinism prefix has run, compares the per-rule firings with those
// the warm-up recorded for the same transactions.
func (e *detectEnv) window(rep *report, d time.Duration, record bool) (elapsed float64, mallocs uint64, txns int64) {
	g := e.stream.generator()
	base := e.firedCounts()
	elapsed, mallocs = runClients(1, d, func(_ int, stop func() bool) {
		txns = e.drive(g, nil, int64(e.prefixTxns()), record)
		got := e.firedCounts()
		for i := range got {
			if got[i]-base[i] != e.prefix[i] {
				rep.fail("rule %s fired %d times on the first %d transactions, %d when they first ran",
					e.rules[i].name, got[i]-base[i], e.prefixTxns(), e.prefix[i])
				break
			}
		}
		txns += e.drive(g, stop, 0, record)
	})
	e.executed = append(e.executed, txns)
	return elapsed, mallocs, txns
}

func (e *detectEnv) prefixTxns() int { return e.cfg.scaled(detPrefixTxns) }

func (e *detectEnv) run(rep *report) error {
	cfg := e.cfg
	// The benchmark's own buffers are not part of the program's set-up.
	e.txnLat = newTimedSamples(int(cfg.seconds*20000) + 1000)
	rep.notef("%s", envLine(0))
	rep.notef("sizes: in-memory, %d classes x %d methods = %d primitive events, %d rules, %d instances per class, 1 closed-loop client, %d events per txn (mean), %d permille aborts",
		e.stream.classes, detMethods, e.stream.classes*detMethods, len(e.rules), detPerClass, detEventsTxn, detAbortMille)

	// Warm-up is the determinism prefix: a fixed number of transactions
	// whose per-rule firings every later window must reproduce.
	warm := e.stream.generator()
	n := e.drive(warm, nil, int64(e.prefixTxns()), false)
	e.prefix = e.firedCounts()
	rep.ruleCounts = e.prefix

	var (
		d            regDelta
		eventsBefore int64
	)
	if !cfg.trace {
		e.executed = append(e.executed, n)
		eventsBefore = e.events
		before := snapRegistry(e.db.Metrics())
		elapsed, mallocs, txns := e.window(rep, cfg.window(1), true)
		d = regDelta{before, snapRegistry(e.db.Metrics())}
		rep.e2e["txn_per_s"] = steadyRate(e.txnLat)
		rep.e2e["allocs_per_txn"] = ratio(float64(mallocs), float64(txns))
		latencyMetrics(rep, "txn", rep.e2e, e.txnLat)
		rep.notef("window %.2f s closed loop, %d transactions", elapsed, txns)
	} else {
		refStart := time.Now()
		refDeadline := refStart.Add(cfg.window(0.3))
		n += e.drive(warm, func() bool { return !time.Now().Before(refDeadline) }, 0, false)
		refRate := ratio(float64(n-int64(e.prefixTxns())), time.Since(refStart).Seconds())
		e.executed = append(e.executed, n)
		probes, err := e.enableTrace()
		if err != nil {
			return err
		}
		before := snapRegistry(e.db.Metrics())
		eventsBefore = e.events
		elapsed, _, txns := e.window(rep, cfg.window(0.7), true)
		d = regDelta{before, snapRegistry(e.db.Metrics())}
		fillCommon(rep, d, float64(txns))
		st := e.tr.Load().table()
		fillTraced(rep, st)
		l := rep.layer
		l["snoop.load_rules_s"] = e.loadS
		l["snoop.rules_per_node"] = ratio(float64(len(e.rules)), d.gauge("sentinel_detector_nodes_live"))
		rep.notef("%d probe subscribers", probes)
		if err := finishTraced(rep, cfg, e.tr.Load(), txns, elapsed, refRate, e.txnLat); err != nil {
			return err
		}
	}
	fires := d.counter("sentinel_rules_fires_immediate_total") + d.counter("sentinel_rules_fires_deferred_total")
	rep.layer["rules.firings_per_event"] = ratio(fires, float64(e.events-eventsBefore))
	rep.notef("achieved %.2f rule firings per primitive event (target 2-8), LoadRules %.3f s", rep.layer["rules.firings_per_event"], e.loadS)
	e.check(rep)
	rep.attempted += e.attempted
	rep.failed += e.failed
	return nil
}

// enableTrace subscribes one probe per distinct (event, context) the
// rules listen on — after the rules, so each probe is notified once its
// node has queued them — and starts recording.
func (e *detectEnv) enableTrace() (int, error) {
	tr := newTracer(1)
	e.tr.Store(tr)
	probe := detector.SubscriberFunc(func(occ *sentinel.Occurrence, _ sentinel.Context) {
		tr.forTxn(occ.Txn).setMark()
	})
	seen := map[string]bool{}
	n := 0
	for _, r := range e.rules {
		name := r.event
		if r.deferred {
			// The rule manager's rewrite of a deferred rule's event.
			name = "A*(beginTransaction," + r.event + ",preCommitTransaction)"
		}
		key := fmt.Sprintf("%s/%d", name, r.ctx)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, err := e.db.Detector().Subscribe(name, r.ctx, probe); err != nil {
			return n, fmt.Errorf("probe on %s: %w", name, err)
		}
		n++
	}
	return n, nil
}

// check compares the simulated rules' firings with the FIFO simulation of
// exactly the transactions the program ran.
func (e *detectEnv) check(rep *report) {
	rep.attempted++
	want := make([]uint64, len(e.rules))
	var events int64
	for _, n := range e.executed {
		f, ev := simulate(e.stream, e.rules, n)
		events += ev
		for i := range f {
			want[i] += f[i]
		}
	}
	if events != e.events {
		rep.fail("simulation replayed %d events, the run issued %d", events, e.events)
	}
	got := e.firedCounts()
	covered, mismatched := 0, 0
	for i, r := range e.rules {
		if !r.simulated() {
			continue
		}
		covered++
		if got[i] != want[i] {
			if mismatched == 0 {
				rep.fail("rule %s (%s, kind %d, context %s, deferred %v) fired %d times, simulation says %d",
					r.name, r.event, r.kind, ctxWords[r.ctx], r.deferred, got[i], want[i])
			}
			mismatched++
		}
	}
	rep.notef("checked: %d of %d rules against the FIFO simulation (%d mismatched), all %d rules for identical firings on the replayed prefix of %d transactions",
		covered, len(e.rules), mismatched, len(e.rules), e.prefixTxns())
}
