package sentinel_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sentinel "repro"
	"repro/internal/event"
	"repro/internal/query"
)

func TestFacadeQueryAndIndexes(t *testing.T) {
	db := openStockDB(t, t.TempDir())

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := db.New(tx, "STOCK", map[string]any{
			"sym": fmt.Sprintf("S%02d", i), "price": float64(i), "sector": i % 4,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateIndex(tx, "STOCK", "price", sentinel.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if defs := db.Indexes(); len(defs) != 1 || defs[0].Attr != "price" {
		t.Fatalf("Indexes() = %v", defs)
	}
	q := sentinel.Q{Class: "STOCK", Where: query.Between("price", 10.0, 14.0), OrderBy: "price"}
	if plan := db.ExplainQuery(q); plan[:10] != "IndexRange" {
		t.Fatalf("plan = %s", plan)
	}
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(tx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0].Attrs["sym"] != "S10" || rows[4].Attrs["sym"] != "S14" {
		t.Fatalf("query rows: %+v", rows)
	}
	// Grouped aggregate through the facade.
	rows, err = db.Query(tx, sentinel.Q{Class: "STOCK", GroupBy: []string{"sector"},
		Aggs: []sentinel.Agg{{Op: query.Count}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("groups: %+v", rows)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestWhereRuleCondition exercises the declarative condition path: the
// rule's condition is EXISTS(STOCK WHERE price > 100) compiled through the
// query engine, evaluated inside the firing transaction.
func TestWhereRuleCondition(t *testing.T) {
	db := openStockDB(t, t.TempDir())
	var fired atomic.Int32
	if _, err := db.DefineRule(sentinel.RuleSpec{
		Name:  "expensive",
		Event: "e3", // end set_price(price)
		Where: &sentinel.RuleWhere{Class: "STOCK", Pred: query.Gt("price", 100.0)},
		Action: func(x *sentinel.Execution) error {
			fired.Add(1)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(tx, "STOCK", "price", sentinel.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	obj, err := db.New(tx, "STOCK", map[string]any{"price": 5.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invoke(tx, obj, "set_price", 50.0); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != 0 {
		t.Fatalf("rule fired below threshold: %d", got)
	}
	if _, err := db.Invoke(tx, obj, "set_price", 150.0); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("rule firings above threshold: %d, want 1", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ranges, _, _, _ := db.QueryManager().Stats(); ranges == 0 {
		t.Fatal("Where condition did not use the index")
	}
}

// TestIndexReplicationToFollower verifies that index DDL, backfill and
// maintenance all reach a follower through ordinary WAL shipping, and that
// follower-side queries answer from the replicated index.
func TestIndexReplicationToFollower(t *testing.T) {
	leader, err := sentinel.Open(sentinel.Options{
		Dir: t.TempDir(), PoolSize: 32, ReplAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := sentinel.Open(sentinel.Options{
		Dir: t.TempDir(), PoolSize: 32, ReplicaOf: leader.ReplAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	for _, db := range []*sentinel.Database{leader, follower} {
		if _, err := db.DefineClass("STOCK", "", false); err != nil {
			t.Fatal(err)
		}
	}

	tx, err := leader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := leader.New(tx, "STOCK", map[string]any{"price": i % 10}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leader.CreateIndex(tx, "STOCK", "price", sentinel.HashIndex); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Wait for the definition and postings to arrive.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if defs := follower.Indexes(); len(defs) == 1 {
			stx, err := follower.BeginSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			rows, qerr := follower.Query(stx, sentinel.Q{Class: "STOCK", Where: query.Eq("price", 3)})
			_ = stx.Commit()
			if qerr != nil {
				t.Fatal(qerr)
			}
			if len(rows) == 3 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("index never replicated: defs=%v", follower.Indexes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if probes, _, _, _, _ := follower.QueryManager().Stats(); probes == 0 {
		t.Fatal("follower query did not probe the replicated index")
	}

	// A re-key on the leader reaches the follower's directories.
	tx, err = leader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := leader.Query(tx, sentinel.Q{Class: "STOCK", Where: query.Eq("price", 3), Limit: 1})
	if err != nil || len(rows) != 1 {
		t.Fatalf("leader probe: %v %v", rows, err)
	}
	inst, err := leader.Load(tx, rows[0].OID)
	if err != nil {
		t.Fatal(err)
	}
	inst.Attrs()["price"] = 77
	if err := leader.Persist(tx, inst); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for {
		stx, err := follower.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		rows, qerr := follower.Query(stx, sentinel.Q{Class: "STOCK", Where: query.Eq("price", 77)})
		_ = stx.Commit()
		if qerr != nil {
			t.Fatal(qerr)
		}
		if len(rows) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("re-key never replicated")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInlinePredicateMatchesWhere: the same condition written as a Snoop
// quoted predicate over an event's parameters and as a rules.Spec.Where
// over an object whose attributes equal those parameters fires the same
// rules, over a seeded table of numbers of every width, NaN, ordered
// strings, booleans, OIDs, values of the wrong kind and absent names.
func TestInlinePredicateMatchesWhere(t *testing.T) {
	conds := []struct {
		src   string
		where query.Pred
	}{
		{`qty > 10`, query.Gt("qty", 10)},
		{`10 < qty`, query.Gt("qty", 10)},
		{`qty <= 2.5`, query.Le("qty", 2.5)},
		{`qty == 3`, query.Eq("qty", 3)},
		{`qty != 3`, query.Ne("qty", 3)},
		{`qty < "a"`, query.Lt("qty", "a")},
		{`sym < "M"`, query.Lt("sym", "M")},
		{`"IBM" <= sym`, query.Ge("sym", "IBM")},
		{`sym == "DEC"`, query.Eq("sym", "DEC")},
		{`hot == true`, query.Eq("hot", true)},
		{`hot != false`, query.Ne("hot", false)},
		{`owner == 7`, query.Eq("owner", 7)},
		{`owner > 5`, query.Gt("owner", 5)},
		{`note < 1`, query.Lt("note", 1)},
		{`note != "x"`, query.Ne("note", "x")},
		{`qty > 1 and sym < "M"`, query.And(query.Gt("qty", 1), query.Lt("sym", "M"))},
		{`hot == true or owner <= 3`, query.Or(query.Eq("hot", true), query.Le("owner", 3))},
		{`not (qty >= 3 or sym > "DEC")`, query.Not(query.Or(query.Ge("qty", 3), query.Gt("sym", "DEC")))},
	}
	values := map[string][]any{
		"qty":   {-1, 0, 3, int64(3), uint8(3), 10, 11, 2.5, 10.5, float32(3), math.NaN(), "ten"},
		"sym":   {"", "DEC", "IBM", "M", "Z", "a", 5},
		"hot":   {true, false},
		"owner": {sentinel.OID(1), sentinel.OID(3), sentinel.OID(6), sentinel.OID(7)},
		"note":  {nil, "x", 2},
	}
	names := []string{"qty", "sym", "hot", "owner", "note"}

	db, err := sentinel.Open(sentinel.Options{Dir: t.TempDir(), SerialRules: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.DefineClass("ROW", "", false); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineExplicitEvent("probe"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fired := map[string]bool{}
	hit := func(x *sentinel.Execution) error {
		mu.Lock()
		fired[x.Rule.Name()] = true
		mu.Unlock()
		return nil
	}
	db.BindAction("hit", hit)
	quote := strings.NewReplacer(`\`, `\\`, `"`, `\"`)
	var spec strings.Builder
	var wheres []sentinel.RuleSpec
	for i, c := range conds {
		fmt.Fprintf(&spec, "rule S%d(probe, \"%s\", hit);\n", i, quote.Replace(c.src))
		wheres = append(wheres, sentinel.RuleSpec{Name: fmt.Sprintf("W%d", i), Event: "probe",
			Where: &sentinel.RuleWhere{Class: "ROW", Pred: c.where}, Action: hit})
	}
	if err := db.Exec(spec.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineRules(wheres); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		attr string
		kind sentinel.IndexKind
	}{{"qty", sentinel.OrderedIndex}, {"sym", sentinel.HashIndex}, {"owner", sentinel.OrderedIndex}} {
		if _, err := db.CreateIndex(tx, "ROW", ix.attr, ix.kind); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	outcomes := make([]map[bool]int, len(conds))
	for i := range outcomes {
		outcomes[i] = map[bool]int{}
	}
	var row sentinel.OID
	for r := 0; r < 60; r++ {
		// One object, attributes = the event's parameters; a name drawn
		// absent is missing from both.
		attrs := map[string]any{}
		var params sentinel.ParamList
		for _, name := range names {
			if rng.Intn(5) == 0 {
				continue
			}
			v := values[name][rng.Intn(len(values[name]))]
			attrs[name] = v
			params = append(params, event.Param{Name: name, Value: v})
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if row != 0 {
			if err := db.Delete(tx, row); err != nil {
				t.Fatal(err)
			}
		}
		inst, err := db.New(tx, "ROW", attrs)
		if err != nil {
			t.Fatal(err)
		}
		row = inst.OID
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		mu.Lock()
		clear(fired)
		mu.Unlock()
		tx, err = db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.RaiseEvent(tx, "probe", params); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for i, c := range conds {
			inline, where := fired[fmt.Sprintf("S%d", i)], fired[fmt.Sprintf("W%d", i)]
			if inline != where {
				t.Errorf("row %d %v: %s fired %v as a Snoop predicate, %v as a Where", r, params, c.src, inline, where)
			}
			outcomes[i][where]++
		}
		mu.Unlock()
	}
	for i, c := range conds {
		if outcomes[i][true] == 0 || outcomes[i][false] == 0 {
			t.Errorf("%s: fired on %d rows, not on %d: the table does not exercise it", c.src, outcomes[i][true], outcomes[i][false])
		}
	}
}
