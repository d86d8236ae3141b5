// Package sched implements Sentinel's rule scheduler: triggered rules are
// packaged as tasks (the paper packages condition+action into a thread) and
// executed in priority order — prioritized serial execution across priority
// classes, concurrent execution of the rules inside one class, and
// depth-first execution of nested (cascading) rule triggerings, whose
// effective priority is derived from the triggering rule's priority exactly
// as §3.2.3 describes.
//
// Effective priorities are paths: a top-level rule of priority p has path
// [p]; a rule of priority q triggered from inside it has path [p q]. Paths
// order lexicographically with larger elements first, and a path extending
// another runs before it resumes — which is precisely priority-ordered
// depth-first execution.
//
// Concurrent execution inside a priority class runs on a persistent worker
// pool (the paper's pool of free threads), started lazily on the first
// parallel class and shared by every Drain thereafter. Each worker owns a
// shard of the dispatched class; a worker whose shard runs dry steals from
// its siblings' shards, so a class whose tasks have skewed run times still
// keeps every worker busy. The goroutine dispatching a class helps run it
// rather than blocking, which both bounds drain latency and makes nested
// scheduling points (a rule action invoking a method re-enters Drain on a
// pool worker) deadlock-free by construction.
//
// A scheduling point suspends the application that triggered the rules —
// one transaction family (a top-level transaction and its subtransactions)
// — not the process: every task carries its family, and DrainFamily runs
// that family's tasks only, so two clients' transactions never wait out,
// or run, each other's rules. Tasks triggered outside any transaction
// belong to no family and run at whichever scheduling point comes next.
// Pool workers still run any family's tasks.
package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// Path is an effective priority: the chain of rule priorities from the
// outermost triggering rule to this one.
type Path []int

// Less reports whether p is strictly less urgent than q: higher priority
// values win; on a tie the deeper (nested) task wins, implementing
// depth-first descent into cascaded rules.
func (p Path) Less(q Path) bool {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return len(p) < len(q)
}

// Equal reports whether two paths denote the same priority class.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Child returns the effective priority of a rule with priority prio
// triggered from inside a task with path p.
func (p Path) Child(prio int) Path {
	out := make(Path, len(p)+1)
	copy(out, p)
	out[len(p)] = prio
	return out
}

// Task is one triggered rule awaiting execution.
type Task struct {
	// Rule names the rule, for traces.
	Rule string
	// Priority is the task's effective priority path.
	Priority Path
	// Family is the id of the top-level transaction the rule was triggered
	// under; zero when it was triggered outside any active transaction
	// (the commit and abort events of a finishing one included), and then
	// every scheduling point runs it.
	Family uint64
	// Run executes the rule (condition + action in a subtransaction). It
	// receives the task so nested triggerings can derive child paths.
	Run func(t *Task)

	// enqueuedAt is stamped by Enqueue when latency histograms are wired,
	// so task wait time (enqueue → start) can be observed.
	enqueuedAt time.Time
	// batch is the dispatch the task belongs to while it sits in a pool
	// shard; Done is called exactly once after the task runs.
	batch *sync.WaitGroup
}

// Scheduler executes tasks with a persistent work-stealing worker pool per
// priority class. The zero value is not usable; call New.
type Scheduler struct {
	mu      sync.Mutex
	queue   []*Task
	workers int
	// Serial forces one-at-a-time execution even within a priority class,
	// for the prioritized-serial execution mode.
	Serial bool

	// Ran counts executed tasks, for the benchmarks.
	Ran uint64

	// Worker pool: shards[i] is worker i's home run queue, all guarded by
	// pmu; pcond wakes idle workers when a class is dispatched or the pool
	// closes. Workers start lazily on the first parallel class, so serial
	// schedulers never spawn a goroutine.
	pmu      sync.Mutex
	pcond    *sync.Cond
	shards   [][]*Task
	started  bool
	closed   bool
	workerWG sync.WaitGroup

	// Observability: drain/class/steal counters are always-on atomics; the
	// latency histograms are nil until RegisterMetrics wires them (before
	// any concurrent use), so unobserved schedulers never call the clock.
	drains      atomic.Uint64
	classDrains atomic.Uint64
	steals      atomic.Uint64
	waitHist    *obs.Histogram
	runHist     *obs.Histogram
}

// New creates a scheduler whose classes run up to workers tasks
// concurrently (the paper's pool of free threads). workers < 1 means 1.
func New(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{workers: workers, shards: make([][]*Task, workers)}
	s.pcond = sync.NewCond(&s.pmu)
	return s
}

// Enqueue adds a triggered rule. Safe to call from anywhere, including
// from inside a running task (nested triggering).
func (s *Scheduler) Enqueue(t *Task) {
	if s.waitHist != nil {
		t.enqueuedAt = time.Now()
	}
	s.mu.Lock()
	s.queue = append(s.queue, t)
	s.mu.Unlock()
}

// Pending returns the number of queued tasks.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Steals returns how many tasks pool workers have stolen from sibling
// shards.
func (s *Scheduler) Steals() uint64 { return s.steals.Load() }

// allFamilies is the drain scope of Drain: every queued task, whatever
// its family. No transaction id reaches it.
const allFamilies = ^uint64(0)

// Drain runs tasks of every family until the queue is empty. Each round
// takes the most urgent priority class, runs all its tasks (concurrently on
// the worker pool, or serially in Serial mode), waits for them — including
// any deeper tasks they spawned, which outrank them — and repeats. Points
// that belong to no one transaction (shutdown, clock advance, batch
// replay, events raised outside a transaction) use it.
func (s *Scheduler) Drain() {
	s.drains.Add(1)
	s.drainAbove(nil, allFamilies)
}

// DrainFamily is the scheduling point at which the paper suspends the
// application (PAPER.md item 4): it runs the tasks of one transaction
// family, and those of no family (Family zero), exactly as Drain runs all
// of them, and returns once it has run every one it found queued, the
// deeper tasks they spawned included. Other families' tasks stay queued
// for their own scheduling points (or a pool worker); only a concurrent
// Drain can take one of this family's first.
func (s *Scheduler) DrainFamily(family uint64) {
	s.drains.Add(1)
	s.drainAbove(nil, family)
}

// Close shuts the worker pool down and waits for the workers to exit.
// Call it after the final Drain; it is idempotent. A Drain after Close
// still completes — the dispatching goroutine runs the whole class
// itself — it just no longer runs tasks concurrently.
func (s *Scheduler) Close() {
	s.pmu.Lock()
	if s.closed {
		s.pmu.Unlock()
		return
	}
	s.closed = true
	s.pmu.Unlock()
	s.pcond.Broadcast()
	s.workerWG.Wait()
}

// drainAbove runs every queued task of the family (allFamilies: of any)
// whose priority strictly outranks floor; a nil floor means run
// everything. Nested tasks always outrank their spawner (their path
// extends it), so recursion on the spawner's path yields depth-first
// execution without ever dipping below the in-progress class.
func (s *Scheduler) drainAbove(floor Path, family uint64) {
	for {
		batch := s.takeTopClassAbove(floor, family)
		if len(batch) == 0 {
			return
		}
		if s.Serial || len(batch) == 1 {
			for _, t := range batch {
				s.runOne(t)
				// Deeper tasks spawned by t run before t's siblings.
				s.drainAbove(t.Priority, family)
			}
			continue
		}
		s.runBatch(batch)
	}
}

// runBatch dispatches one priority class onto the worker pool, scattering
// the tasks round-robin across the workers' shards, then helps run the
// class instead of blocking: it keeps pulling this batch's still-queued
// tasks until none remain, and only then waits for the in-flight
// remainder. Helping is what makes re-entrant scheduling points safe — a
// pool worker whose task reaches a nested Drain dispatches and helps run
// the nested class itself, so every dispatched task is always claimable
// by some goroutine that is not asleep.
func (s *Scheduler) runBatch(batch []*Task) {
	var wg sync.WaitGroup
	wg.Add(len(batch))
	for _, t := range batch {
		t.batch = &wg
	}
	s.pmu.Lock()
	// The pool holds workers-1 goroutines: the dispatcher's help loop
	// below is the remaining executor, so in-class concurrency stays
	// bounded by the configured worker count.
	if !s.started && !s.closed && s.workers > 1 {
		s.started = true
		s.workerWG.Add(s.workers - 1)
		for i := 0; i < s.workers-1; i++ {
			go s.worker(i)
		}
	}
	for i, t := range batch {
		shard := i % s.workers
		s.shards[shard] = append(s.shards[shard], t)
	}
	s.pmu.Unlock()
	s.pcond.Broadcast()
	for {
		t := s.takeFromBatch(&wg)
		if t == nil {
			break
		}
		s.runOne(t)
		wg.Done()
	}
	wg.Wait()
}

// takeFromBatch removes one still-queued task belonging to the given
// dispatch from whichever shard holds it, for the dispatcher's help loop.
func (s *Scheduler) takeFromBatch(wg *sync.WaitGroup) *Task {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for si, sh := range s.shards {
		for i, t := range sh {
			if t.batch == wg {
				copy(sh[i:], sh[i+1:])
				sh[len(sh)-1] = nil
				s.shards[si] = sh[:len(sh)-1]
				return t
			}
		}
	}
	return nil
}

// worker is one pool goroutine: it drains its home shard in dispatch
// order, steals from sibling shards when home is dry, and sleeps on the
// pool condition when there is no work anywhere.
func (s *Scheduler) worker(home int) {
	defer s.workerWG.Done()
	s.pmu.Lock()
	for {
		t, stolen := s.takeWorkLocked(home)
		if t == nil {
			if s.closed {
				s.pmu.Unlock()
				return
			}
			s.pcond.Wait()
			continue
		}
		s.pmu.Unlock()
		if stolen {
			s.steals.Add(1)
		}
		s.runOne(t)
		t.batch.Done()
		s.pmu.Lock()
	}
}

// takeWorkLocked pops the next task for a worker: the head of its home
// shard, or — when home is empty — the tail of the first non-empty
// sibling shard (a steal). Callers hold pmu.
func (s *Scheduler) takeWorkLocked(home int) (t *Task, stolen bool) {
	if sh := s.shards[home]; len(sh) > 0 {
		t := sh[0]
		copy(sh, sh[1:])
		sh[len(sh)-1] = nil
		s.shards[home] = sh[:len(sh)-1]
		return t, false
	}
	for off := 1; off < s.workers; off++ {
		vi := (home + off) % s.workers
		sh := s.shards[vi]
		if len(sh) > 0 {
			t := sh[len(sh)-1]
			sh[len(sh)-1] = nil
			s.shards[vi] = sh[:len(sh)-1]
			return t, true
		}
	}
	return nil, false
}

func (s *Scheduler) runOne(t *Task) {
	// Fault hook: Delay verdicts stall this task before it starts, reordering
	// rule interleavings deterministically; error verdicts are meaningless
	// here and ignored.
	_ = faults.Check(faults.SchedTask)
	if s.runHist != nil {
		start := time.Now()
		if !t.enqueuedAt.IsZero() {
			s.waitHist.ObserveDuration(start.Sub(t.enqueuedAt))
		}
		t.Run(t)
		s.runHist.ObserveDuration(time.Since(start))
	} else {
		t.Run(t)
	}
	s.mu.Lock()
	s.Ran++
	s.mu.Unlock()
}

// RegisterMetrics wires the scheduler into a metrics registry: queue
// depth, executed tasks, drain rounds, drained priority classes, steals,
// and task wait/run latency histograms. Call it before the scheduler is
// shared across goroutines (the histogram fields are written
// unsynchronized).
func (s *Scheduler) RegisterMetrics(r *obs.Registry) {
	s.waitHist = r.Histogram("sentinel_sched_task_wait_seconds",
		"Time tasks spent queued between Enqueue and the start of execution.",
		obs.DurationBuckets())
	s.runHist = r.Histogram("sentinel_sched_task_run_seconds",
		"Task execution time (rule condition + action + subtransaction).",
		obs.DurationBuckets())
	r.GaugeFunc("sentinel_sched_queue_depth",
		"Tasks currently queued and not yet running.",
		func() float64 { return float64(s.Pending()) })
	r.CounterFunc("sentinel_sched_tasks_total",
		"Tasks executed to completion.",
		func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.Ran
		})
	r.CounterFunc("sentinel_sched_drains_total",
		"Scheduling points (Drain calls) that ran the queue to empty.",
		s.drains.Load)
	r.CounterFunc("sentinel_sched_class_drains_total",
		"Priority classes drained (batches of equal-priority tasks taken).",
		s.classDrains.Load)
	r.CounterFunc("sentinel_sched_steals_total",
		"Tasks pool workers stole from sibling shards (equal-priority work stealing).",
		s.steals.Load)
}

// inScope reports whether a drain of family (allFamilies: of every one)
// runs t. A task of family zero belongs to no transaction, so every
// scheduling point runs it.
func (t *Task) inScope(family uint64) bool {
	return family == allFamilies || t.Family == family || t.Family == 0
}

// takeTopClassAbove removes and returns every queued task in the drain's
// scope (inScope) belonging to the most urgent priority class that
// strictly outranks floor. Enqueue order within the class is preserved.
func (s *Scheduler) takeTopClassAbove(floor Path, family uint64) []*Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	var top Path
	found := false
	for _, t := range s.queue {
		if !t.inScope(family) {
			continue
		}
		if floor != nil && !floor.Less(t.Priority) {
			continue
		}
		if !found || top.Less(t.Priority) {
			top = t.Priority
			found = true
		}
	}
	if !found {
		return nil
	}
	s.classDrains.Add(1)
	var batch []*Task
	rest := s.queue[:0]
	for _, t := range s.queue {
		if t.inScope(family) && t.Priority.Equal(top) {
			batch = append(batch, t)
		} else {
			rest = append(rest, t)
		}
	}
	for i := len(rest); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = rest
	return batch
}
