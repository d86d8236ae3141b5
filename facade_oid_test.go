package sentinel_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	sentinel "repro"
	"repro/internal/query"
)

// OIDs are never handed out twice: not after the object holding the
// highest one is deleted and the database restarts or fails over, and not
// to concurrent creators.

func openItems(t *testing.T, opts sentinel.Options) *sentinel.Database {
	t.Helper()
	db, err := sentinel.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("ITEM", "", false); err != nil {
		t.Fatal(err)
	}
	return db
}

// newItemsDeleteHighest creates n ITEM objects in one committed
// transaction, deletes the highest-OID one in another, and returns its OID.
func newItemsDeleteHighest(t *testing.T, db *sentinel.Database, n int) sentinel.OID {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var highest sentinel.OID
	for i := 0; i < n; i++ {
		inst, err := db.New(tx, "ITEM", map[string]any{"i": i})
		if err != nil {
			t.Fatal(err)
		}
		highest = max(highest, inst.OID)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(tx, highest); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return highest
}

func newOID(t *testing.T, db *sentinel.Database) sentinel.OID {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := db.New(tx, "ITEM", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return inst.OID
}

func TestOIDNotReusedAfterReopen(t *testing.T) {
	dir := t.TempDir()
	db := openItems(t, sentinel.Options{Dir: dir})
	highest := newItemsDeleteHighest(t, db, 3)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openItems(t, sentinel.Options{Dir: dir})
	defer db.Close()
	if got := newOID(t, db); got <= highest {
		t.Fatalf("after reopen New got OID %v, at or below the deleted highest %v", got, highest)
	}
}

func TestOIDNotReusedAfterPromote(t *testing.T) {
	leader := openItems(t, sentinel.Options{Dir: t.TempDir(), ReplAddr: "127.0.0.1:0"})
	follower := openItems(t, sentinel.Options{Dir: t.TempDir(), ReplicaOf: leader.ReplAddr()})
	defer follower.Close()
	highest := newItemsDeleteHighest(t, leader, 3)
	// The follower has caught up once a marker the leader wrote last is
	// readable there.
	tx, err := leader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	marker, err := leader.New(tx, "ITEM", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete(tx, marker.OID); err != nil {
		t.Fatal(err)
	}
	if err := leader.Bind(tx, "done", 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		stx, err := follower.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := follower.Resolve(stx, "done")
		_ = stx.Commit()
		if rerr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %v", rerr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := newOID(t, follower); got <= marker.OID {
		t.Fatalf("after promote New got OID %v, at or below the leader's deleted %v (and %v)", got, marker.OID, highest)
	}
}

// TestConcurrentNewUniqueOIDs: creators in parallel, across OID block
// boundaries, never share an OID.
func TestConcurrentNewUniqueOIDs(t *testing.T) {
	db := openItems(t, sentinel.Options{Dir: t.TempDir()})
	defer db.Close()
	const creators, each = 8, 300
	var mu sync.Mutex
	seen := map[sentinel.OID]bool{}
	var wg sync.WaitGroup
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				inst, err := db.New(tx, "ITEM", nil)
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[inst.OID] {
					t.Errorf("OID %v handed out twice", inst.OID)
				}
				seen[inst.OID] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != creators*each {
		t.Fatalf("%d distinct OIDs for %d creates", len(seen), creators*each)
	}
}

// TestWhereOnOIDAttribute: an attribute holding an OID (a reference to
// another object) compares and indexes as a number, so a Where on it finds
// its object by extent scan and, once the attribute is indexed, by probe
// and by range scan.
func TestWhereOnOIDAttribute(t *testing.T) {
	db := openItems(t, sentinel.Options{Dir: t.TempDir()})
	defer db.Close()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var owners []sentinel.OID
	for i := 0; i < 10; i++ {
		inst, err := db.New(tx, "ITEM", map[string]any{"i": i})
		if err != nil {
			t.Fatal(err)
		}
		owners = append(owners, inst.OID)
	}
	for i, owner := range owners {
		if _, err := db.New(tx, "ITEM", map[string]any{"owner": owner, "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	find := func(where query.Pred, wantPlan string, want ...int) {
		t.Helper()
		q := sentinel.Q{Class: "ITEM", Where: where, OrderBy: "n"}
		if plan := db.ExplainQuery(q); !strings.HasPrefix(plan, wantPlan) {
			t.Fatalf("%v: plan %s, want %s", where, plan, wantPlan)
		}
		stx, err := db.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer stx.Commit()
		rows, err := db.Query(stx, q)
		if err != nil {
			t.Fatal(err)
		}
		var got []any
		for _, r := range rows {
			got = append(got, r.Attrs["n"])
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v (%s): n = %v, want %v", where, wantPlan, got, want)
		}
	}
	find(query.Eq("owner", owners[3]), "ExtentScan", 3)
	find(query.Gt("owner", owners[7]), "ExtentScan", 8, 9)

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(tx, "ITEM", "owner", sentinel.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	find(query.Eq("owner", owners[3]), "IndexProbe", 3)
	find(query.Gt("owner", owners[7]), "IndexRange", 8, 9)
	find(query.Between("owner", owners[0], owners[1]), "IndexRange", 0, 1)
}
