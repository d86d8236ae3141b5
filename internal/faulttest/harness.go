// Package faulttest is the crash-torture harness: one iteration skeleton
// drives a seeded workload against a stack of layers while the fault layer
// (internal/faults) injects a kill point, brings the stack back — which
// runs recovery — and verifies the durability invariants the rest of the
// system is built on:
//
//  1. every value committed before the crash is present, with its value,
//  2. no value of an aborted or in-flight transaction survives,
//  3. a transaction whose Commit was interrupted is all-or-nothing,
//  4. no transaction is left active, and the snapshot and latest scans of
//     the store agree record for record.
//
// Three stacks plug into it — Storage (raw records), Query (objects and
// secondary indexes), Repl (a leader and a follower over TCP) — each adding
// only its own oracles. A "crash" is the faults.Crash panic: the workload
// recovers it and abandons the stack unclosed, losing the buffered WAL tail
// as a killed process would.
package faulttest

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/storage"
)

// killPoint is one schedulable crash site with the hit-count range the
// storage workload plausibly reaches. A per-record point's range stretches
// by the stack's hit scale.
type killPoint struct {
	point     faults.Point
	maxHit    int
	syncOnly  bool
	perRecord bool
}

// leaderPoints are the kill points a replication follower never passes
// through, so the replication stack can arm them for its leader: a
// follower refuses Commit and Abort before their points, forces its log
// directly rather than through the group-commit flusher, and ingests
// through storage.wal.ingest, not storage.wal.append.
var leaderPoints = []killPoint{
	{point: faults.StoreCommit, maxHit: 8},
	// The group-commit flusher: the crash fires on the flusher goroutine
	// between batch collection and the force, is re-raised on each waiting
	// committer, and the batch's commit records may or may not have hit
	// disk — every transaction in it must recover all-or-nothing.
	{point: faults.StoreGroupFlush, maxHit: 12},
	{point: faults.StoreAbortUndo, maxHit: 8, perRecord: true},
	{point: faults.WALAppend, maxHit: 48, perRecord: true},
}

// queryPoints adds the log's flush and fsync and a page write: a run writes
// a page or two (evictions, checkpoints).
var queryPoints = slices.Concat(leaderPoints, []killPoint{
	{point: faults.WALFlush, maxHit: 12},
	{point: faults.WALFsync, maxHit: 12, syncOnly: true},
	{point: faults.DiskWrite, maxHit: 1},
})

// storagePoints adds the file extension of a page allocation, which a
// storage run reaches once, right at its start. The query stack's setup
// allocates every page its run fills.
var storagePoints = slices.Concat(queryPoints, []killPoint{{point: faults.DiskTruncate, maxHit: 1}})

// scenario is one class of iteration, with the kill points it may arm.
type scenario struct {
	name   string
	points []killPoint
}

// Schedule is everything an iteration's seed decides.
type Schedule struct {
	Seed     int64
	Scenario string
	SyncWAL  bool
	SegBytes int64        // WAL segment size; 0 is the store's default
	Point    faults.Point // the armed kill point; "" when none
	On       uint64       // the hit of Point that crashes
}

// A Stack is one configuration of layers under torture.
type Stack struct {
	Name      string
	scenarios []scenario
	hitScale  int // records its operations write per storage-workload one
	// open opens the stack over a directory, recovering what is there.
	open func(dir string, sch Schedule) (stack, error)
}

var (
	Storage = &Stack{Name: "storage", scenarios: []scenario{{"reopen", storagePoints}}, hitScale: 1,
		open: openStoreStack}
	// An object operation writes the object and an entry per index.
	Query = &Stack{Name: "query", scenarios: []scenario{{"reopen", queryPoints}}, hitScale: 3, open: openQuery}
	Repl  = &Stack{Name: "repl", scenarios: replScenarios, hitScale: 1, open: openRepl}
)

// draw derives an iteration's schedule from its seed; the generator it
// returns drives the workload. It is seeded with the seed's splitmix64
// hash: math/rand streams of consecutive seeds, which sweeps walk, start
// out correlated enough to starve whole scenario/point pairs. Small
// segments exercise rolls, sealed-segment shipping and the checkpoint
// archive path — except under follower-kill: with its session dead, a
// workload checkpoint may prune below the crashed follower's resume offset,
// turning the reconnect into a (correct but terminal) resync refusal.
func (k *Stack) draw(seed int64) (Schedule, *rand.Rand) {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	rng := rand.New(rand.NewSource(int64(z ^ z>>31)))
	sc := k.scenarios[rng.Intn(len(k.scenarios))]
	s := Schedule{Seed: seed, Scenario: sc.name}
	var kp killPoint
	if len(sc.points) > 0 {
		kp = sc.points[rng.Intn(len(sc.points))]
		if kp.perRecord {
			kp.maxHit *= k.hitScale
		}
		s.Point, s.On = kp.point, uint64(1+rng.Intn(kp.maxHit))
	}
	s.SyncWAL = kp.syncOnly || rng.Intn(3) == 0
	if sc.name != scenFollowerKill && rng.Intn(2) == 0 {
		s.SegBytes = 4 << 10
	}
	return s, rng
}

// Run executes one seeded iteration in dir: open the stack, commit its
// setup, run the workload under the drawn kill point, bring the stack back
// and check it. It returns the schedule, whether its kill point fired, and
// the first violation (nil when all held).
func (k *Stack) Run(seed int64, dir string) (sch Schedule, crashed bool, err error) {
	sch, rng := k.draw(seed)
	s, err := k.open(dir, sch)
	if err != nil {
		return sch, false, err
	}
	var led ledger
	if err := s.setup(&led, rng); err != nil {
		return sch, false, fmt.Errorf("setup: %w", err)
	}
	if sch.Point != "" {
		faults.Arm(faults.NewInjector(seed, faults.Trigger{
			Point: sch.Point, On: sch.On, Limit: 1, Fault: faults.Fault{Crash: true},
		}))
	}
	crashed = workload(rng, seed, s, &led)
	s, crashed, err = s.recover(crashed, func() (stack, error) { return k.open(dir, sch) })
	if err != nil {
		return sch, crashed, fmt.Errorf("recovery: %w", err)
	}
	return sch, crashed, errors.Join(check(s, seed, led.fold()), s.close())
}

// stack is the layer a workload drives and the checks read back.
type stack interface {
	begin() (tx, error)
	// setup commits, before any kill point is armed, what the stack's
	// oracles need in place.
	setup(led *ledger, rng *rand.Rand) error
	checkpoint() error
	// recover brings the stack back once the workload is over, the kill
	// point still armed: it disarms, and returns the stack to check and
	// whether the kill fired. reopen opens the stack over its directory
	// again, running recovery.
	recover(crashed bool, reopen func() (stack, error)) (stack, bool, error)
	// verify checks a recovered stack: the durability contract against
	// exp, then the stack's own oracles.
	verify(exp *Expectation) error
	close() error
}

// tx is one workload transaction or subtransaction; it updates and removes
// only values it inserted itself.
type tx interface {
	insert(key string, v int) error
	update(key string, v int) error
	remove(key string) error
	sub() (tx, error)
	commit() error
	abort() error
}

// txStatus tracks how far one workload transaction got. An aborted
// transaction is a loser exactly like one still in flight.
type txStatus int

const (
	txInFlight txStatus = iota
	txCommitting
	txCommitted
)

// txRecord is the outcome ledger's entry for one transaction: the values
// it owes the database iff it commits, the keys it killed in every outcome
// (deletes, aborted subtransactions), and how far it got. Entries are
// written before the operation they describe, so one a crash interrupts is
// owed like one that finished.
type txRecord struct {
	status txStatus
	owed   map[string]string
	dead   []string
}

// ledger is the outcome ledger: one entry per transaction, in begin order.
type ledger []*txRecord

func (l *ledger) begin() *txRecord {
	t := &txRecord{owed: map[string]string{}}
	*l = append(*l, t)
	return t
}

// owe records that key holds v if the transaction commits; it returns v.
func (t *txRecord) owe(key string, v int) int {
	t.owed[key] = strconv.Itoa(v)
	return v
}

func (t *txRecord) kill(key string) {
	delete(t.owed, key)
	t.dead = append(t.dead, key)
}

// commit steps t through committing → committed. A failed commit stays
// committing: its commit record's fate is unknown.
func (t *txRecord) commit(x tx) error {
	t.status = txCommitting
	if err := x.commit(); err != nil {
		return err
	}
	t.status = txCommitted
	return nil
}

// Expectation is what an iteration's workload promises the recovered stack.
type Expectation struct {
	Present       map[string]string   // must be found, with this value
	Absent        map[string]bool     // must NOT be found
	Indeterminate []map[string]string // per interrupted commit: all or none
}

// fold seals each transaction's fate by where the crash (or the run's end)
// left it: committed present, committing all-or-nothing, the rest losers.
func (l ledger) fold() *Expectation {
	exp := &Expectation{Present: map[string]string{}, Absent: map[string]bool{}}
	for _, t := range l {
		switch t.status {
		case txCommitted:
			maps.Copy(exp.Present, t.owed)
		case txCommitting:
			if len(t.owed) > 0 {
				exp.Indeterminate = append(exp.Indeterminate, t.owed)
			}
		default:
			for k := range t.owed {
				exp.Absent[k] = true
			}
		}
		for _, k := range t.dead {
			exp.Absent[k] = true
		}
	}
	return exp
}

// insertOwn inserts n values, name-0 … name-(n-1), each owed by t.
func insertOwn(x tx, t *txRecord, rng *rand.Rand, name string, n int) ([]string, error) {
	keys := make([]string, n)
	for k := range keys {
		keys[k] = fmt.Sprintf("%s-%d", name, k)
		if err := x.insert(keys[k], t.owe(keys[k], rng.Intn(20))); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// workload drives a seeded run of transactions through s, recording in led
// what each owes, and reports whether an injected crash cut it short. Any
// other failure just ends the run where the ledger says it got to.
func workload(rng *rand.Rand, seed int64, s stack, led *ledger) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := faults.AsCrash(r); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	for i, n := 0, 6+rng.Intn(7); i < n; i++ {
		if transaction(rng, fmt.Sprintf("o%d-%d", seed, i), s, led.begin()) != nil {
			break
		}
	}
	return false
}

// transaction runs one seeded workload transaction — inserts, an update,
// a delete, a committed or aborted subtransaction, a checkpoint, a commit
// or voluntary abort — touching only its own values, so expectations
// compose without cross-transaction ordering analysis.
func transaction(rng *rand.Rand, name string, s stack, t *txRecord) error {
	x, err := s.begin()
	if err != nil {
		return err
	}
	mine, err := insertOwn(x, t, rng, name, 1+rng.Intn(4))
	if err != nil {
		return err
	}
	if rng.Intn(3) == 0 {
		// For objects a re-key: the ordered index must drop the old posting
		// and add the new one atomically with the update.
		key := mine[rng.Intn(len(mine))]
		if err := x.update(key, t.owe(key, rng.Intn(20))); err != nil {
			return err
		}
	}
	if len(mine) > 1 && rng.Intn(4) == 0 {
		// A deleted value (and its index postings) dies in every outcome.
		key := mine[rng.Intn(len(mine))]
		t.kill(key)
		if err := x.remove(key); err != nil {
			return err
		}
	}
	if rng.Intn(3) == 0 {
		// Subtransaction: its value follows the parent iff it commits and
		// dies unconditionally if it aborts — a sub-abort undoes its effects,
		// index entries included, right away while the parent lives on.
		sub, err := x.sub()
		if err != nil {
			return err
		}
		key := name + "-sub"
		if err := sub.insert(key, t.owe(key, rng.Intn(20))); err != nil {
			return err
		}
		if rng.Intn(2) == 0 {
			err = sub.commit()
		} else {
			t.kill(key)
			err = sub.abort()
		}
		if err != nil {
			return err
		}
	}
	if rng.Intn(10) == 0 {
		if err := s.checkpoint(); err != nil {
			return err
		}
	}
	if rng.Intn(10) < 7 {
		return t.commit(x)
	}
	return x.abort()
}

// durable is the one durability check of found, what a recovered stack
// over st holds. Beyond exp, the snapshot and latest scans must agree:
// right after recovery every surviving record is frozen, so no version
// chain may make the MVCC view diverge from the raw page state.
func durable(st *storage.Store, found map[string]string, exp *Expectation) error {
	for k, v := range exp.Present {
		if got, ok := found[k]; !ok {
			return fmt.Errorf("invariant: committed value %q missing after recovery", k)
		} else if got != v {
			return fmt.Errorf("invariant: committed value %q recovered as %s, want %s", k, got, v)
		}
	}
	for k := range exp.Absent {
		if _, ok := found[k]; ok {
			return fmt.Errorf("invariant: aborted/in-flight value %q present after recovery", k)
		}
	}
	for _, group := range exp.Indeterminate {
		n := 0
		for k, v := range group {
			if got, ok := found[k]; ok && got != v {
				return fmt.Errorf("invariant: interrupted commit recovered %q as %s, want %s", k, got, v)
			} else if ok {
				n++
			}
		}
		if n != 0 && n != len(group) {
			return fmt.Errorf("invariant: interrupted commit recovered partially (%d of %d values)", n, len(group))
		}
	}
	if n := len(st.ActiveTxns()); n != 0 {
		return fmt.Errorf("invariant: %d transactions still active after recovery", n)
	}
	snap, latest, err := scans(st)
	if err != nil {
		return err
	}
	if err := sameRecords("snapshot and latest scan after recovery", snap, latest); err != nil {
		return fmt.Errorf("invariant: %w", err)
	}
	return nil
}

// check verifies a recovered stack, then proves it accepts new work: one
// more committed value, which verification must find (through the indexes,
// if any).
func check(s stack, seed int64, exp *Expectation) error {
	if err := s.verify(exp); err != nil {
		return err
	}
	x, err := s.begin()
	key := fmt.Sprintf("smoke-%d", seed)
	if err == nil {
		err = x.insert(key, 7)
	}
	if err == nil {
		err = x.commit()
	}
	if err != nil {
		return err
	}
	exp.Present[key] = "7"
	if err := s.verify(exp); err != nil {
		return fmt.Errorf("post-recovery smoke: %w", err)
	}
	return nil
}

// scans reads every record of st through the snapshot path (ForEachRecord)
// and unfiltered (ForEachRecordLatest).
func scans(st *storage.Store) (snap, latest map[storage.RID]string, err error) {
	snap, latest = map[storage.RID]string{}, map[storage.RID]string{}
	into := func(m map[storage.RID]string) func(storage.RID, []byte) error {
		return func(rid storage.RID, data []byte) error {
			m[rid] = string(data)
			return nil
		}
	}
	if err := st.ForEachRecord(into(snap)); err != nil {
		return nil, nil, fmt.Errorf("snapshot scan: %w", err)
	}
	if err := st.ForEachRecordLatest(into(latest)); err != nil {
		return nil, nil, fmt.Errorf("latest scan: %w", err)
	}
	return snap, latest, nil
}

// sameRecords reports the first record at which two scans differ.
func sameRecords(what string, a, b map[storage.RID]string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s differ: %d records vs %d", what, len(a), len(b))
	}
	for rid, v := range a {
		if w, ok := b[rid]; !ok || w != v {
			return fmt.Errorf("%s differ at %v: %q vs %q", what, rid, v, w)
		}
	}
	return nil
}

// storeStack drives raw "key=value" records through the storage manager;
// the other stacks are built on it.
type storeStack struct{ st *storage.Store }

func openStore(dir string, sch Schedule, follower bool) (*storage.Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return storage.Open(storage.Options{Dir: dir, PoolSize: 8, SyncWAL: sch.SyncWAL,
		WALSegBytes: sch.SegBytes, Follower: follower})
}

func openStoreStack(dir string, sch Schedule) (stack, error) {
	st, err := openStore(dir, sch, false)
	return storeStack{st}, err
}

func (s storeStack) begin() (tx, error) {
	id, err := s.st.Begin()
	return &storeTx{s.st, id, map[string]storage.RID{}}, err
}

func (storeStack) setup(*ledger, *rand.Rand) error { return nil }
func (s storeStack) checkpoint() error             { return s.st.Checkpoint() }
func (s storeStack) close() error                  { return s.st.Close() }

// recover reopens the stack. A schedule that never fired closes cleanly
// first, so verification also covers the plain shutdown/reopen path. A
// crashed stack is abandoned, not closed: its buffered WAL tail is lost
// with the "process", and so is every in-memory directory.
func (s storeStack) recover(crashed bool, reopen func() (stack, error)) (stack, bool, error) {
	faults.Disarm()
	if !crashed {
		if err := s.close(); err != nil {
			return nil, false, err
		}
	}
	r, err := reopen()
	return r, crashed, err
}

func (s storeStack) verify(exp *Expectation) error {
	snap, _, err := scans(s.st)
	if err != nil {
		return err
	}
	found := map[string]string{}
	for _, rec := range snap {
		k, v, ok := strings.Cut(rec, "=")
		if _, dup := found[k]; dup || !ok {
			return fmt.Errorf("invariant: record %q malformed or duplicated", rec)
		}
		found[k] = v
	}
	return durable(s.st, found, exp)
}

// storeTx is a storage transaction and the records it inserted.
type storeTx struct {
	st   *storage.Store
	id   uint64
	rids map[string]storage.RID
}

func (x *storeTx) insert(key string, v int) (err error) {
	x.rids[key], err = x.st.Insert(x.id, []byte(key+"="+strconv.Itoa(v)))
	return err
}

func (x *storeTx) update(key string, v int) (err error) {
	x.rids[key], err = x.st.Update(x.id, x.rids[key], []byte(key+"="+strconv.Itoa(v)))
	return err
}

func (x *storeTx) remove(key string) error { return x.st.Delete(x.id, x.rids[key]) }

func (x *storeTx) sub() (tx, error) {
	id, err := x.st.BeginSub(x.id)
	return &storeTx{x.st, id, map[string]storage.RID{}}, err
}

func (x *storeTx) commit() error { return x.st.Commit(x.id) }
func (x *storeTx) abort() error  { return x.st.Abort(x.id) }

// seedLoser leaves in dir the stack's setup and a durable loser — inserts
// a checkpoint forced to disk, never committed — so that the next open
// MUST run an undo pass: the sabotage test's proof that the checks catch a
// recovery that skips it.
func (k *Stack) seedLoser(dir string) (*Expectation, error) {
	s, err := k.open(dir, Schedule{})
	if err != nil {
		return nil, err
	}
	var led ledger
	rng := rand.New(rand.NewSource(1))
	if err := s.setup(&led, rng); err != nil {
		return nil, err
	}
	x, err := s.begin()
	if err == nil {
		_, err = insertOwn(x, led.begin(), rng, "loser", 3)
	}
	if err == nil {
		err = s.checkpoint()
	}
	return led.fold(), err
}
