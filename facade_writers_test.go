package sentinel_test

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	sentinel "repro"
	"repro/internal/lockmgr"
)

// Concurrent writer transactions through the facade, with no lock of the
// test's own around them. Every transaction runs Begin → Load → Invoke →
// Commit on an ACCT object; the withdrawal's end event triggers an
// immediate rule that creates an AUDIT object and a deferred rule that
// creates a LOG object, both in the withdrawing transaction.

const (
	writers      = 4
	txnsPerWrite = 25
	acctBalance  = 1_000_000
)

// writerRig is a database with the ACCT/AUDIT/LOG schema and the two rules,
// plus what the rules saw: per top-level transaction, how many times each
// rule ran.
type writerRig struct {
	db                  *sentinel.Database
	mu                  sync.Mutex
	immediate, deferred map[uint64]int
}

func newWriterRig(t *testing.T) *writerRig {
	t.Helper()
	db, err := sentinel.Open(sentinel.Options{Dir: t.TempDir(), LockTimeout: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	w := &writerRig{db: db, immediate: map[uint64]int{}, deferred: map[uint64]int{}}
	if err := db.Exec(`class ACCT reactive { event end(withdrawn) withdraw(amount, tag); }`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"AUDIT", "LOG"} {
		if _, err := db.DefineClass(c, "", false); err != nil {
			t.Fatal(err)
		}
	}
	acct, _ := db.Class("ACCT")
	acct.DefineMethod(sentinel.Method{
		Name: "withdraw", Params: []string{"amount", "tag"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			self.Set("balance", self.Get("balance").(int)-args[0].(int))
			return nil, nil
		},
	})
	record := func(into map[uint64]int, x *sentinel.Execution) {
		w.mu.Lock()
		into[x.Txn.Root().ID()]++
		w.mu.Unlock()
	}
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name: "audit", Event: "withdrawn",
		Action: func(x *sentinel.Execution) error {
			tag, _ := x.Occurrence.Params.Get("tag")
			if _, err := db.New(x.Txn, "AUDIT", map[string]any{"tag": tag}); err != nil {
				return err
			}
			record(w.immediate, x)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name: "log", Event: "withdrawn", Coupling: sentinel.Deferred, Context: sentinel.Cumulative,
		Action: func(x *sentinel.Execution) error {
			for _, leaf := range x.Occurrence.Leaves() {
				if tag, ok := leaf.Params.Get("tag"); ok {
					if _, err := db.New(x.Txn, "LOG", map[string]any{"tag": tag}); err != nil {
						return err
					}
				}
			}
			record(w.deferred, x)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *writerRig) ran(into map[uint64]int, root uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return into[root]
}

// accounts creates n ACCT objects in one committed transaction.
func (w *writerRig) accounts(t *testing.T, n int) []sentinel.OID {
	t.Helper()
	tx, err := w.db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]sentinel.OID, n)
	for i := range oids {
		inst, err := w.db.New(tx, "ACCT", map[string]any{"balance": acctBalance})
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = inst.OID
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return oids
}

// withdraw runs one transaction and checks, as it goes, that Invoke
// returned after this transaction's immediate rule ran and Commit after
// its deferred rule ran.
func (w *writerRig) withdraw(oid sentinel.OID, amount int, tag string) error {
	tx, err := w.db.Begin()
	if err != nil {
		return err
	}
	fail := func(err error) error {
		_ = tx.Abort()
		return err
	}
	inst, err := w.db.Load(tx, oid)
	if err != nil {
		return fail(err)
	}
	if _, err := w.db.Invoke(tx, inst, "withdraw", amount, tag); err != nil {
		return fail(err)
	}
	if n := w.ran(w.immediate, tx.ID()); n != 1 {
		return fail(fmt.Errorf("%s: Invoke returned with its immediate rule run %d times", tag, n))
	}
	if n := w.ran(w.deferred, tx.ID()); n != 0 {
		return fail(fmt.Errorf("%s: deferred rule ran %d times before Commit", tag, n))
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if n := w.ran(w.deferred, tx.ID()); n != 1 {
		return fmt.Errorf("%s: Commit returned with its deferred rule run %d times", tag, n)
	}
	return nil
}

// tags returns the sorted tag attributes of a class's committed extent.
func (w *writerRig) tags(t *testing.T, class string) []string {
	t.Helper()
	tx, err := w.db.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Commit() }()
	var out []string
	if err := w.db.ForEach(tx, class, false, func(inst *sentinel.Instance) bool {
		out = append(out, inst.Attr("tag").(string))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func (w *writerRig) balance(t *testing.T, oid sentinel.OID) int {
	t.Helper()
	tx, err := w.db.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Commit() }()
	inst, err := w.db.Load(tx, oid)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Attr("balance").(int)
}

// runWriters runs writers goroutines of txnsPerWrite withdrawals each,
// writer g on pick(g, i), and returns the tags and amounts that committed.
// A failure other than allowed(err) fails the test.
func (w *writerRig) runWriters(t *testing.T, pick func(g, i int) sentinel.OID, allowed func(error) bool) map[string]int {
	var mu sync.Mutex
	committed := map[string]int{}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < txnsPerWrite; i++ {
				tag, amount := fmt.Sprintf("w%d-%03d", g, i), 1+g+i%7
				err := w.withdraw(pick(g, i), amount, tag)
				if err == nil {
					mu.Lock()
					committed[tag] = amount
					mu.Unlock()
					continue
				}
				if !allowed(err) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	return committed
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestConcurrentWritersThroughFacade: writers on objects of their own never
// fail, each scheduling point runs its own transaction's rules, and the
// committed state is every withdrawal's.
func TestConcurrentWritersThroughFacade(t *testing.T) {
	w := newWriterRig(t)
	oids := w.accounts(t, 2*writers)
	committed := w.runWriters(t, func(g, i int) sentinel.OID { return oids[2*g+i%2] },
		func(error) bool { return false })
	if len(committed) != writers*txnsPerWrite {
		t.Fatalf("%d of %d transactions committed", len(committed), writers*txnsPerWrite)
	}
	want := sortedKeys(committed)
	for _, class := range []string{"AUDIT", "LOG"} {
		if got := w.tags(t, class); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s tags %v, want the committed %v", class, got, want)
		}
	}
	for g := 0; g < writers; g++ {
		spent := 0
		for i := 0; i < txnsPerWrite; i++ {
			spent += 1 + g + i%7
		}
		if got := w.balance(t, oids[2*g]) + w.balance(t, oids[2*g+1]); got != 2*acctBalance-spent {
			t.Fatalf("writer %d's accounts hold %d, want %d", g, got, 2*acctBalance-spent)
		}
	}
}

// TestCommitAndAbortRulesRunAtNextSchedulingPoint: commitTransaction and
// abortTransaction are signalled after their transaction has left Active,
// so the rules they trigger belong to no transaction family; the next
// scheduling point of any other transaction — Begin or Invoke — runs them.
func TestCommitAndAbortRulesRunAtNextSchedulingPoint(t *testing.T) {
	w := newWriterRig(t)
	oid := w.accounts(t, 1)[0]
	// A rule triggered outside any transaction runs in a top-level
	// transaction of its own, whose commit triggers the commit rule again,
	// so the rules record which transaction's event they saw.
	var mu sync.Mutex
	saw := map[string]bool{}
	record := func(kind string) sentinel.Action {
		return func(x *sentinel.Execution) error {
			mu.Lock()
			saw[fmt.Sprint(kind, x.Occurrence.Txn)] = true
			mu.Unlock()
			return nil
		}
	}
	seen := func(kind string, tx *sentinel.Txn) bool {
		mu.Lock()
		defer mu.Unlock()
		return saw[fmt.Sprint(kind, tx.ID())]
	}
	w.db.BindAction("onCommit", record("commit"))
	w.db.BindAction("onAbort", record("abort"))
	if err := w.db.Exec(`rule RC(commitTransaction, true, onCommit);
rule RA(abortTransaction, true, onAbort);`); err != nil {
		t.Fatal(err)
	}
	begin := func() *sentinel.Txn {
		tx, err := w.db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	committing, invoking := begin(), begin()
	if err := committing.Commit(); err != nil {
		t.Fatal(err)
	}
	aborting := begin()
	if !seen("commit", committing) {
		t.Fatal("Begin returned before the rule on the last commit ran")
	}
	if err := aborting.Abort(); err != nil {
		t.Fatal(err)
	}
	inst, err := w.db.Load(invoking, oid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.db.Invoke(invoking, inst, "withdraw", 1, "t"); err != nil {
		t.Fatal(err)
	}
	if !seen("abort", aborting) {
		t.Fatal("Invoke returned before the rule on the last abort ran")
	}
	if err := invoking.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWritersSharedObject: writers on one shared object. Load
// then a mutating Invoke is an S→X upgrade, so writers can deadlock; the
// only failure allowed is the lock manager breaking that (deadlock or
// timeout), and the committed state equals a serial replay of exactly the
// committed transactions.
func TestConcurrentWritersSharedObject(t *testing.T) {
	w := newWriterRig(t)
	oid := w.accounts(t, 1)[0]
	committed := w.runWriters(t, func(int, int) sentinel.OID { return oid },
		func(err error) bool {
			return errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout)
		})
	if len(committed) == 0 {
		t.Fatal("no transaction committed")
	}
	spent := 0
	for _, amount := range committed {
		spent += amount
	}
	if got := w.balance(t, oid); got != acctBalance-spent {
		t.Fatalf("balance %d, a serial replay of the %d committed withdrawals gives %d", got, len(committed), acctBalance-spent)
	}
	want := sortedKeys(committed)
	for _, class := range []string{"AUDIT", "LOG"} {
		if got := w.tags(t, class); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s tags %v, want the committed %v", class, got, want)
		}
	}
}
