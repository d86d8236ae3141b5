package sentinel_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sentinel "repro"
	"repro/internal/faults"
	"repro/internal/lockmgr"
	"repro/internal/rules"
)

// metricsBody scrapes the database's /metrics endpoint.
func metricsBody(t *testing.T, db *sentinel.Database) string {
	t.Helper()
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// openRobustDB opens an in-memory database with concurrent rule workers
// and the given retry/cascade knobs, plus the STOCK schema.
func openRobustDB(t *testing.T, opts sentinel.Options) *sentinel.Database {
	t.Helper()
	opts.AppName = "robust"
	db, err := sentinel.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if err := db.Exec(`
class STOCK reactive {
    event end(e1) sell_stock(qty);
}
`); err != nil {
		t.Fatal(err)
	}
	stock, err := db.Class("STOCK")
	if err != nil {
		t.Fatal(err)
	}
	stock.DefineMethod(sentinel.Method{
		Name: "sell_stock", Params: []string{"qty"}, Mutates: true,
		Body: func(self *sentinel.Self, args []any) (any, error) {
			cur, _ := self.Get("qty").(int)
			self.Set("qty", cur-args[0].(int))
			return cur - args[0].(int), nil
		},
	})
	return db
}

// TestDeadlockedRulesRetryAndSucceed is the acceptance stress for rule
// self-healing: two detached rules lock two objects in opposite orders
// (AB-BA), so runs deadlock; the lock manager aborts a victim, the rule
// layer retries it in a fresh subtransaction with backoff, and every
// execution must eventually succeed — with the retries visible in
// /metrics.
func TestDeadlockedRulesRetryAndSucceed(t *testing.T) {
	// Persistent mode matters here: only store-backed objects are rolled
	// back when a deadlock victim's subtransaction aborts, so the final
	// quantities prove retries neither lost nor double-applied work.
	db := openRobustDB(t, sentinel.Options{
		Dir:         t.TempDir(),
		Workers:     4,
		RuleRetries: 25,
	})
	var ruleErrs atomic.Uint64
	db.RuleManager().OnError = func(rule string, err error) {
		ruleErrs.Add(1)
		t.Errorf("rule %s failed permanently: %v", rule, err)
	}

	setup, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.New(setup, "STOCK", map[string]any{"qty": 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.New(setup, "STOCK", map[string]any{"qty": 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	for _, ev := range []string{"evAB", "evBA"} {
		if err := db.DefineExplicitEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	// The AB-BA cycle forms on two named resources locked in opposite
	// orders, with a sleep holding the first lock so the opposing rule
	// reliably takes its own first lock. The object decrements happen only
	// once both locks are held, so a deadlock victim aborts with no work
	// done and the retried attempt applies it exactly once.
	lockPair := func(firstRes, secondRes string) sentinel.Action {
		return func(x *sentinel.Execution) error {
			if err := x.Txn.Lock(firstRes, lockmgr.Exclusive); err != nil {
				return err
			}
			time.Sleep(2 * time.Millisecond)
			if err := x.Txn.Lock(secondRes, lockmgr.Exclusive); err != nil {
				return err
			}
			for _, oid := range []sentinel.OID{a.OID, b.OID} {
				inst, err := db.Load(x.Txn, oid)
				if err != nil {
					return err
				}
				if _, err := db.Invoke(x.Txn, inst, "sell_stock", 1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name: "RAB", Event: "evAB", Coupling: sentinel.Detached, Action: lockPair("res:A", "res:B"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name: "RBA", Event: "evBA", Coupling: sentinel.Detached, Action: lockPair("res:B", "res:A"),
	}); err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := db.RaiseEvent(nil, "evAB", nil); err != nil {
			t.Fatal(err)
		}
		if err := db.RaiseEvent(nil, "evBA", nil); err != nil {
			t.Fatal(err)
		}
		db.RuleManager().WaitDetached()
	}

	if n := ruleErrs.Load(); n != 0 {
		t.Fatalf("%d rule executions failed permanently despite retry", n)
	}
	// Every execution decremented both objects exactly once, so retries
	// never double-applied and exhaustion never dropped an execution.
	check, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer check.Abort()
	for _, obj := range []*sentinel.Instance{a, b} {
		inst, err := db.Load(check, obj.OID)
		if err != nil {
			t.Fatal(err)
		}
		if qty := inst.Attr("qty").(int); qty != 1000-2*rounds {
			t.Fatalf("object qty %d, want %d — a retried rule lost or repeated work", qty, 1000-2*rounds)
		}
	}

	body := metricsBody(t, db)
	if v := metricValue(t, body, "sentinel_rules_retries_total"); v == 0 {
		t.Fatal("no retries recorded across 20 AB-BA rounds — deadlocks never formed or retries are invisible")
	}
	if v := metricValue(t, body, "sentinel_rules_fires_detached_total"); v != 2*rounds {
		t.Fatalf("detached fires %v, want %d", v, 2*rounds)
	}
	t.Logf("retries over %d rounds: %v", rounds, metricValue(t, body, "sentinel_rules_retries_total"))
}

// TestInjectedRuleErrorIsCountedAndContained: a fault-injected action
// error must abort only the rule's subtransaction — counted in
// sentinel_rules_errors_total and reported through OnError — while the
// triggering transaction commits untouched.
func TestInjectedRuleErrorIsCountedAndContained(t *testing.T) {
	db := openRobustDB(t, sentinel.Options{SerialRules: true, RuleRetries: -1})
	var got error
	db.RuleManager().OnError = func(rule string, err error) { got = err }
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name: "RFail", Event: "e1",
		Action: func(*sentinel.Execution) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	before := metricValue(t, metricsBody(t, db), "sentinel_rules_errors_total")

	faults.Arm(faults.NewInjector(7, faults.Trigger{
		Point: faults.RuleAction, On: 1, Limit: 1, Fault: faults.Fault{},
	}))
	defer faults.Disarm()

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.New(tx, "STOCK", map[string]any{"qty": 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatalf("triggering invoke poisoned by rule failure: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("triggering transaction poisoned by rule failure: %v", err)
	}
	faults.Disarm()

	if !errors.Is(got, faults.ErrInjected) {
		t.Fatalf("OnError got %v, want the injected fault", got)
	}
	body := metricsBody(t, db)
	if after := metricValue(t, body, "sentinel_rules_errors_total"); after != before+1 {
		t.Fatalf("errors counter %v, want %v", after, before+1)
	}
	if v := metricValue(t, body, "sentinel_faults_injected_total"); v == 0 {
		t.Fatal("sentinel_faults_injected_total not visible in /metrics after an armed run")
	}
	// The committed write must have survived the rule's failure.
	check, _ := db.Begin()
	defer check.Abort()
	inst, err := db.Load(check, obj.OID)
	if err != nil {
		t.Fatal(err)
	}
	if qty := inst.Attr("qty").(int); qty != 4 {
		t.Fatalf("qty %d, want 4", qty)
	}
}

// TestInjectedRulePanicIsContained: a fault-injected PANIC in an immediate
// rule's action must be recovered by the rule layer, counted as an error,
// and must never take down the process or poison the triggering
// transaction.
func TestInjectedRulePanicIsContained(t *testing.T) {
	db := openRobustDB(t, sentinel.Options{SerialRules: true, RuleRetries: -1})
	var got error
	db.RuleManager().OnError = func(rule string, err error) { got = err }
	ran := 0
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name: "RPanic", Event: "e1",
		Action: func(*sentinel.Execution) error { ran++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	before := metricValue(t, metricsBody(t, db), "sentinel_rules_errors_total")

	faults.Arm(faults.NewInjector(7, faults.Trigger{
		Point: faults.RuleAction, On: 1, Limit: 1, Fault: faults.Fault{Panic: true},
	}))
	defer faults.Disarm()

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.New(tx, "STOCK", map[string]any{"qty": 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatalf("triggering invoke poisoned by rule panic: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("triggering transaction poisoned by rule panic: %v", err)
	}
	faults.Disarm()

	if ran != 0 {
		t.Fatalf("action body ran %d times; the panic verdict should fire instead of it", ran)
	}
	if got == nil {
		t.Fatal("panicking rule was not reported through OnError")
	}
	if after := metricValue(t, metricsBody(t, db), "sentinel_rules_errors_total"); after != before+1 {
		t.Fatalf("errors counter %v, want %v", after, before+1)
	}
}

// TestCascadeDepthShed: a self-raising rule would cascade forever; the
// configured depth cap must shed the triggering past the limit, count it,
// and report ErrCascadeShed — the database stays live.
func TestCascadeDepthShed(t *testing.T) {
	db := openRobustDB(t, sentinel.Options{SerialRules: true, MaxCascadeDepth: 3})
	var mu sync.Mutex
	var shedErr error
	db.RuleManager().OnError = func(rule string, err error) {
		mu.Lock()
		defer mu.Unlock()
		if errors.Is(err, rules.ErrCascadeShed) {
			shedErr = err
		}
	}
	if err := db.DefineExplicitEvent("boom"); err != nil {
		t.Fatal(err)
	}
	runs := 0
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name: "RBoom", Event: "boom",
		Action: func(x *sentinel.Execution) error {
			runs++
			if runs > 100 {
				return fmt.Errorf("cascade not shed after %d runs", runs)
			}
			return db.RaiseEventFrom(x, "boom", nil)
		},
	}); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RaiseEvent(tx, "boom", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if runs == 0 || runs > 10 {
		t.Fatalf("self-raising rule ran %d times; want a small count bounded by the depth cap", runs)
	}
	if shedErr == nil {
		t.Fatal("no ErrCascadeShed reported through OnError")
	}
	if v := metricValue(t, metricsBody(t, db), "sentinel_rules_sheds_total"); v == 0 {
		t.Fatal("sentinel_rules_sheds_total did not count the shed")
	}
}

// TestRuleFailureStormLeaksNoOccurrences: a storm of probabilistically
// fault-injected rule failures across many transactions must leave the
// event graph empty — failed rules may not strand partial occurrences in
// operator nodes.
func TestRuleFailureStormLeaksNoOccurrences(t *testing.T) {
	db := openRobustDB(t, sentinel.Options{SerialRules: true, RuleRetries: -1})
	db.RuleManager().OnError = func(string, error) {} // failures are the point
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name: "RStorm", Event: "e1",
		Action: func(*sentinel.Execution) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}

	faults.Arm(faults.NewInjector(99, faults.Trigger{
		Point: faults.RuleAction, Prob: 0.5, Fault: faults.Fault{},
	}, faults.Trigger{
		Point: faults.RuleAction, Prob: 0.1, Fault: faults.Fault{Panic: true},
	}))
	defer faults.Disarm()

	for i := 0; i < 40; i++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := db.New(tx, "STOCK", map[string]any{"qty": 100})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	faults.Disarm()

	if n := db.Detector().PendingOccurrences(); n != 0 {
		t.Fatalf("%d occurrences leaked in the event graph after the failure storm", n)
	}
}

// TestInvalidOptionsRejected: Open must reject out-of-range knobs instead
// of silently clamping them.
func TestInvalidOptionsRejected(t *testing.T) {
	cases := []struct {
		name string
		opts sentinel.Options
	}{
		{"negative lock timeout", sentinel.Options{LockTimeout: -1}},
		{"rule retries below -1", sentinel.Options{RuleRetries: -2}},
		{"cascade depth below -1", sentinel.Options{MaxCascadeDepth: -5}},
		{"negative workers", sentinel.Options{Workers: -1}},
		{"negative pool size", sentinel.Options{PoolSize: -1}},
	}
	for _, tc := range cases {
		if db, err := sentinel.Open(tc.opts); err == nil {
			db.Close()
			t.Errorf("%s: Open accepted %+v", tc.name, tc.opts)
		}
	}
	// The sentinel values -1 (disable retry, unlimited cascade) are valid.
	db, err := sentinel.Open(sentinel.Options{RuleRetries: -1, MaxCascadeDepth: -1})
	if err != nil {
		t.Fatalf("Open rejected the documented -1 sentinels: %v", err)
	}
	db.Close()
}
