// Package faults is Sentinel's deterministic fault-injection layer: a
// dependency-free registry of named injection points threaded through every
// layer that touches durability or scheduling (disk, WAL, store, lock
// manager, scheduler, rules). Tests and the crash-torture harness arm an
// Injector — a schedule of triggers that fire on exact hit counts
// (step-counted) or with a seeded-RNG probability — and each fired trigger
// applies a verdict: an injected error, added latency, a panic, a simulated
// crash, or a torn (partial) write.
//
// Determinism is the point: a trigger schedule plus a seed reproduces the
// exact same fault sequence on every run, so a torture failure is a
// one-line repro. The disarmed fast path is a single atomic pointer load
// (no locks, no map lookups), so production binaries pay nothing for the
// instrumentation being compiled in.
//
// Crash verdicts panic with *Crash; a harness recovers the panic at the
// top of its workload, abandons the faulted object without closing it
// (losing buffered state, exactly like a kill -9 loses unflushed buffers),
// and reopens from the on-disk files to exercise recovery.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site. The constants below are every site
// threaded through the tree; sites consult Check (or CheckIO for torn
// writes) with their point on entry.
type Point string

// Injection points, named <package>.<operation>.
const (
	// DiskRead fires in DiskManager.ReadPage before the read.
	DiskRead Point = "storage.disk.read"
	// DiskWrite fires in DiskManager.WritePage before the write; its
	// Fault.Partial supports torn page writes.
	DiskWrite Point = "storage.disk.write"
	// DiskTruncate fires in DiskManager.Allocate after the file was
	// extended (modeling a syscall that did the work but reported
	// failure) and again on the rollback truncate, so both the restore
	// and the re-stat reconcile paths are reachable.
	DiskTruncate Point = "storage.disk.truncate"
	// DiskSync fires in DiskManager.Sync before the fsync.
	DiskSync Point = "storage.disk.sync"
	// WALAppend fires in WAL.Append before the record is buffered. Any
	// fired error seals the WAL (fail-fast).
	WALAppend Point = "storage.wal.append"
	// WALIngest fires in WAL.IngestRaw — a replication follower making
	// shipped leader bytes its own — before they are buffered; a fired
	// error seals the WAL. It is not WALAppend so that a trigger armed for
	// a leader never fires in a follower sharing its process.
	WALIngest Point = "storage.wal.ingest"
	// WALFlush fires in WAL.Flush before the buffer is written; its
	// Fault.Partial supports torn (short) log writes.
	WALFlush Point = "storage.wal.flush"
	// WALFsync fires in WAL.Flush before the fsync (sync mode only). A
	// fired error is sticky-fatal: the WAL seals.
	WALFsync Point = "storage.wal.fsync"
	// GEDLogAppend, GEDLogFlush and GEDLogFsync are the same three sites in
	// the GED contribution log (its own seglog): arming the storage.wal
	// points never fires inside a GED log, and vice versa.
	GEDLogAppend Point = "ged.log.append"
	GEDLogFlush  Point = "ged.log.flush"
	GEDLogFsync  Point = "ged.log.fsync"
	// StoreCommit fires in Store.Commit between appending the commit
	// record and forcing the log — the classic "acknowledged or not?"
	// kill window.
	StoreCommit Point = "storage.store.commit"
	// StoreAbortUndo fires in Store.Abort before each undo step, so
	// crashes land mid-rollback.
	StoreAbortUndo Point = "storage.store.abort.undo"
	// StoreGroupFlush fires in the group-commit flusher goroutine between
	// collecting a batch of committers and forcing the log for them. A
	// crash here kills a whole commit batch whose fsync never completed;
	// every transaction in it must recover all-or-nothing. The flusher
	// recovers the crash panic, seals the WAL, and re-raises the crash on
	// each waiting committer's goroutine.
	StoreGroupFlush Point = "storage.store.groupcommit.flush"
	// ReplApply fires in a follower store before each shipped log record
	// is applied, so replication torture can kill the follower mid-batch
	// (between the raw-WAL ingest and the page/version-chain effects).
	ReplApply Point = "storage.store.repl.apply"
	// RecoverSkipUndo is a recovery-sabotage point: when armed, Store
	// recovery SKIPS its undo pass entirely. It exists solely so the
	// crash-torture harness can prove it detects broken recovery (the
	// harness must fail when this is armed); it is never armed outside
	// such self-checks.
	RecoverSkipUndo Point = "storage.store.recover.skip-undo"
	// LockAcquire fires at the top of every lock request: a Delay verdict
	// stalls the requester (widening race windows), an Err verdict forces
	// the requester to fail as if chosen a deadlock victim.
	LockAcquire Point = "lockmgr.acquire"
	// SchedTask fires before each scheduler task runs; Delay verdicts
	// stall rule execution to reorder interleavings.
	SchedTask Point = "sched.task"
	// RuleAction fires in place of a rule action invocation: an Err
	// verdict is reported as the action's error, a Panic verdict makes
	// the action panic.
	RuleAction Point = "rules.action"
)

// ErrInjected is the default error verdict, and the sentinel every
// injected error wraps — errors.Is(err, faults.ErrInjected) identifies a
// fault regardless of the wrapping site.
var ErrInjected = errors.New("faults: injected fault")

// Crash is the panic value of a crash verdict. Harnesses recover it (see
// AsCrash) and treat the faulted object as killed.
type Crash struct {
	Point Point
}

// Error describes the crash; Crash implements error so recovered values
// print usefully in test failures.
func (c *Crash) Error() string { return fmt.Sprintf("faults: injected crash at %s", c.Point) }

// AsCrash reports whether a recovered panic value is an injected crash.
func AsCrash(r any) (*Crash, bool) {
	c, ok := r.(*Crash)
	return c, ok
}

// Panic is the panic value of a panic verdict (distinct from Crash so rule
// panic-path tests cannot be confused with kill-points).
type Panic struct {
	Point Point
}

// Error describes the panic.
func (p *Panic) Error() string { return fmt.Sprintf("faults: injected panic at %s", p.Point) }

// Fault is the verdict applied when a trigger fires. Zero-value fields are
// inactive; a Fault with no active field defaults to returning ErrInjected.
type Fault struct {
	// Err is returned from the injection site (wrapped so errors.Is sees
	// both Err and ErrInjected). Nil with no other verdict set means
	// ErrInjected.
	Err error
	// Delay stalls the caller before any other verdict applies.
	Delay time.Duration
	// Panic makes the site panic with *Panic.
	Panic bool
	// Crash makes the site panic with *Crash (a kill-point).
	Crash bool
	// Partial, at torn-write-capable sites (DiskWrite), applies only the
	// first Partial bytes of the write before the rest of the verdict.
	Partial int
}

// Trigger schedules a Fault at a Point. Exactly one of the step-counted
// form (On, optionally Every) or the probabilistic form (Prob) should be
// used; a zero trigger never fires.
type Trigger struct {
	Point Point
	// On fires on the On-th hit of the point (1-based).
	On uint64
	// Every, with On, re-fires every Every hits after On.
	Every uint64
	// Prob fires each hit with this probability, drawn from the
	// injector's seeded RNG (deterministic for a fixed seed and hit
	// sequence).
	Prob float64
	// Limit caps the number of fires (0 = unlimited).
	Limit uint64
	// Fault is the verdict to apply.
	Fault Fault
}

// trigState is a Trigger plus its fire count.
type trigState struct {
	Trigger
	fires uint64
}

// Injector is one armed fault schedule. Arm installs it globally; all
// state (hit counts, RNG) is mutated under one mutex, which only armed
// runs pay for — determinism beats speed when faults are on.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	byPoint map[Point][]*trigState
	hits    map[Point]uint64
}

// NewInjector builds an injector over the given trigger schedule. seed
// drives the probabilistic triggers.
func NewInjector(seed int64, trigs ...Trigger) *Injector {
	in := &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		byPoint: make(map[Point][]*trigState),
		hits:    make(map[Point]uint64),
	}
	for _, t := range trigs {
		in.byPoint[t.Point] = append(in.byPoint[t.Point], &trigState{Trigger: t})
	}
	return in
}

// Hits returns how many times the point was consulted while this injector
// was armed.
func (in *Injector) Hits(p Point) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[p]
}

// Fires returns how many faults this injector fired at the point.
func (in *Injector) Fires(p Point) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, t := range in.byPoint[p] {
		n += t.fires
	}
	return n
}

// take records a hit and returns the fault to apply, or nil.
func (in *Injector) take(p Point) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[p]++
	hit := in.hits[p]
	for _, t := range in.byPoint[p] {
		if t.Limit > 0 && t.fires >= t.Limit {
			continue
		}
		fire := false
		switch {
		case t.Prob > 0:
			fire = in.rng.Float64() < t.Prob
		case t.On > 0:
			fire = hit == t.On || (t.Every > 0 && hit > t.On && (hit-t.On)%t.Every == 0)
		}
		if fire {
			t.fires++
			f := t.Fault
			return &f
		}
	}
	return nil
}

// armed is the globally installed injector; nil means disarmed. The
// pointer load is the entire disarmed cost of every injection point.
var armed atomic.Pointer[Injector]

// injected counts every fault fired since process start, for /metrics.
var injected atomic.Uint64

// Arm installs the injector globally. Only one injector is armed at a
// time; tests must Disarm (or defer Disarm) before the next schedule.
func Arm(in *Injector) { armed.Store(in) }

// Disarm removes the armed injector; every point reverts to the free
// fast path.
func Disarm() { armed.Store(nil) }

// Armed reports whether an injector is installed.
func Armed() bool { return armed.Load() != nil }

// Injected returns the total faults fired since process start (a
// process-global counter: /metrics exposes it so injected faults are
// visible alongside the retries and aborts they provoke).
func Injected() uint64 { return injected.Load() }

// Check consults the armed schedule at point p and applies any fired
// verdict: it sleeps Delay, panics for Panic/Crash verdicts, and returns
// the injected error (nil when no trigger fired, or for a pure-Delay
// verdict). Disarmed cost: one atomic load.
func Check(p Point) error {
	in := armed.Load()
	if in == nil {
		return nil
	}
	return apply(p, in.take(p), nil)
}

// CheckIO is Check for torn-write-capable sites: when the fired fault has
// Partial > 0, partial(n) is invoked — the site performs the first n bytes
// of its write — before the rest of the verdict (error or crash) applies.
func CheckIO(p Point, partial func(n int)) error {
	in := armed.Load()
	if in == nil {
		return nil
	}
	return apply(p, in.take(p), partial)
}

// apply realizes a fired verdict. Order: torn bytes, delay, crash/panic,
// error — so "write half the page, then die" composes naturally.
func apply(p Point, f *Fault, partial func(n int)) error {
	if f == nil {
		return nil
	}
	injected.Add(1)
	if f.Partial > 0 && partial != nil {
		partial(f.Partial)
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Crash {
		panic(&Crash{Point: p})
	}
	if f.Panic {
		panic(&Panic{Point: p})
	}
	if f.Err != nil {
		if errors.Is(f.Err, ErrInjected) {
			return f.Err
		}
		return fmt.Errorf("%w: %w", ErrInjected, f.Err)
	}
	if f.Delay > 0 || f.Partial > 0 {
		return nil // pure latency / torn-write verdicts do not force an error
	}
	return fmt.Errorf("%w at %s", ErrInjected, p)
}
