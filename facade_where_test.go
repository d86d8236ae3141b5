package sentinel_test

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sentinel "repro"
	"repro/internal/lockmgr"
	"repro/internal/query"
)

// whereDB opens a persistent database with n ACCOUNT objects, account i in
// branch i%10, and the explicit events tick_where and tick_true.
func whereDB(t *testing.T, n int) (*sentinel.Database, []sentinel.OID) {
	t.Helper()
	db, err := sentinel.Open(sentinel.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if _, err := db.DefineClass("ACCOUNT", "", false); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{"tick_where", "tick_true"} {
		if err := db.DefineExplicitEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var oids []sentinel.OID
	for i := 0; i < n; i++ {
		inst, err := db.New(tx, "ACCOUNT", map[string]any{"branch": float64(i % 10), "balance": 1e6})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, inst.OID)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, oids
}

func metric(t *testing.T, db *sentinel.Database, name string) float64 {
	t.Helper()
	s, ok := db.Metrics().Get(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return s.Value
}

// TestWhereConditionAllocations: a Where rule's condition is planned when
// the rule is defined, so a firing compiles no plan, and its probe
// allocates at most 2 objects more than a Go condition that returns true
// (17 while every firing planned the query).
func TestWhereConditionAllocations(t *testing.T) {
	db, _ := whereDB(t, 1000)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(tx, "ACCOUNT", "branch", sentinel.HashIndex); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	act := func(*sentinel.Execution) error { fired.Add(1); return nil }
	if _, err := db.DefineRules([]sentinel.RuleSpec{
		{Name: "where", Event: "tick_where", Action: act,
			Where: &sentinel.RuleWhere{Class: "ACCOUNT", Pred: query.Eq("branch", 7.0)}},
		{Name: "true", Event: "tick_true", Action: act,
			Condition: func(*sentinel.Execution) bool { return true }},
	}); err != nil {
		t.Fatal(err)
	}
	plan, err := db.ExplainRule("where")
	if err != nil || !strings.HasPrefix(plan, "IndexProbe(hash(ACCOUNT.branch)") {
		t.Fatalf("ExplainRule = %q, %v; want an IndexProbe of the branch index", plan, err)
	}
	if _, err := db.ExplainRule("true"); err == nil {
		t.Fatal("ExplainRule of a Go-condition rule reported no error")
	}
	tick := func(ev string) func() {
		return func() {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := db.RaiseEvent(tx, ev, nil); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const runs = 200
	plans := metric(t, db, "sentinel_query_plans_compiled_total")
	where := testing.AllocsPerRun(runs, tick("tick_where"))
	if n := metric(t, db, "sentinel_query_plans_compiled_total") - plans; n != 0 {
		t.Fatalf("%d Where firings compiled %.0f plans, want 0", runs+1, n)
	}
	base := testing.AllocsPerRun(runs, tick("tick_true"))
	if got := fired.Load(); got != 2*(runs+1) {
		t.Fatalf("rules fired %d times over %d ticks", got, 2*(runs+1))
	}
	t.Logf("a Where firing allocates %.1f objects, a true condition's %.1f", where, base)
	if extra := where - base; extra > 2 && !raceEnabled {
		t.Fatalf("a Where firing allocates %.1f objects, a true condition's %.1f: the condition costs %.1f, want at most 2", where, base, extra)
	}
}

// TestWhereRuleAcrossIndexDDL fires a Where rule in a loop while another
// goroutine creates, drops, abortively creates and abortively drops an
// index on the probed attribute. In each firing a second rule's condition probes the Where
// rule's prepared plan and walks the extent on the same snapshot; the two
// must agree, and the Where rule must fire exactly when the walk finds a
// row. A snapshot opened before the DDL is checked the same way.
func TestWhereRuleAcrossIndexDDL(t *testing.T) {
	db, oids := whereDB(t, 7) // branches 0-6: only a re-key makes a row match
	db.TxnManager().Locks().DefaultTimeout = 10 * time.Second
	pred := query.Eq("branch", 7.0)
	oracle := func(tx *sentinel.Txn) bool {
		found := false
		if err := db.ForEach(tx, "ACCOUNT", false, func(inst *sentinel.Instance) bool {
			found = pred.Eval(inst.Attrs())
			return !found
		}); err != nil {
			t.Error(err)
		}
		return found
	}
	var whereFired, oracleTrue atomic.Int64
	var errMu sync.Mutex
	var ruleErr error
	db.RuleManager().OnError = func(rule string, err error) {
		errMu.Lock()
		ruleErr = errors.Join(ruleErr, err)
		errMu.Unlock()
	}
	where, err := db.DefineRule(sentinel.RuleSpec{
		Name: "where", Event: "tick_where", Priority: 1,
		Where:  &sentinel.RuleWhere{Class: "ACCOUNT", Pred: pred},
		Action: func(*sentinel.Execution) error { whereFired.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(tx *sentinel.Txn, what string) bool {
		got, err := where.Where().Exists(tx)
		want := oracle(tx)
		if err != nil || got != want {
			t.Errorf("%s: prepared Exists = %v, %v; extent walk = %v (plan %s)", what, got, err, want, where.Where().Explain())
		}
		return want
	}
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name: "oracle", Event: "tick_where",
		Condition: func(x *sentinel.Execution) bool {
			if check(x.Txn, "firing") {
				oracleTrue.Add(1)
			}
			return false
		},
		Action: func(*sentinel.Execution) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}

	retryable := func(err error) bool {
		return errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout)
	}
	// attempt runs fn in a fresh transaction until it is not a lock victim,
	// then commits it, or aborts it when abort is set.
	attempt := func(abort bool, fn func(tx *sentinel.Txn) error) error {
		for {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			if err = fn(tx); err == nil {
				if abort {
					return tx.Abort()
				}
				if err = tx.Commit(); err == nil {
					return nil
				}
			} else {
				_ = tx.Abort()
			}
			if !retryable(err) {
				return err
			}
		}
	}

	stop := make(chan struct{})
	ddlDone := make(chan error, 1)
	var ddlRounds atomic.Int64
	go func() {
		ddl := []func(tx *sentinel.Txn) error{
			func(tx *sentinel.Txn) error {
				_, err := db.CreateIndex(tx, "ACCOUNT", "branch", sentinel.HashIndex)
				return err
			},
			func(tx *sentinel.Txn) error {
				_, err := db.CreateIndex(tx, "ACCOUNT", "branch", sentinel.OrderedIndex)
				return err
			},
			func(tx *sentinel.Txn) error { return db.DropIndex(tx, "ACCOUNT", "branch", sentinel.HashIndex) },
			func(tx *sentinel.Txn) error { return db.DropIndex(tx, "ACCOUNT", "branch", sentinel.HashIndex) },
		}
		for {
			select {
			case <-stop:
				ddlDone <- nil
				return
			default:
			}
			for i, fn := range ddl {
				// The ordered create and the first drop abort.
				if err := attempt(i == 1 || i == 2, fn); err != nil {
					ddlDone <- err
					return
				}
			}
			ddlRounds.Add(1)
		}
	}()

	rnd := rand.New(rand.NewSource(1))
	rekey := func(tx *sentinel.Txn) error {
		for _, oid := range oids[:3] {
			inst, err := db.Load(tx, oid)
			if err != nil {
				return err
			}
			branch := 8.0
			if rnd.Intn(4) == 0 {
				branch = 7.0
			}
			inst.Attrs()["branch"] = branch
			if err := db.Persist(tx, inst); err != nil {
				return err
			}
		}
		return nil
	}
	old, err := db.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// At least 150 firings, and at least 20 rounds of DDL beside them.
	r := 0
	for ; (r < 150 || ddlRounds.Load() < 20) && !t.Failed(); r++ {
		// Committed re-keys, then a firing that writes nothing (DDL may run
		// beside it); every third firing re-keys in its own transaction.
		err := attempt(false, rekey)
		if err == nil {
			err = attempt(false, func(tx *sentinel.Txn) error {
				if r%3 == 0 {
					if err := rekey(tx); err != nil {
						return err
					}
				}
				return db.RaiseEvent(tx, "tick_where", nil)
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		check(old, "old snapshot")
		if r%10 == 9 {
			_ = old.Commit()
			if old, err = db.BeginSnapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = old.Commit()
	close(stop)
	if err := <-ddlDone; err != nil {
		t.Fatal(err)
	}
	errMu.Lock()
	defer errMu.Unlock()
	if ruleErr != nil {
		t.Fatal(ruleErr)
	}
	t.Logf("%d ticks: the Where rule fired %d times, the extent walk found a row %d times; %d rounds of DDL",
		r, whereFired.Load(), oracleTrue.Load(), ddlRounds.Load())
	if whereFired.Load() != oracleTrue.Load() {
		t.Fatalf("the Where rule fired %d times, the extent walk found a row %d times", whereFired.Load(), oracleTrue.Load())
	}
}
