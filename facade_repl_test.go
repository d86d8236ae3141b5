package sentinel

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/query"
)

func TestReplicationOptionValidation(t *testing.T) {
	if _, err := Open(Options{Dir: t.TempDir(), ReplAddr: ":0", ReplicaOf: "localhost:1"}); err == nil {
		t.Fatal("ReplAddr+ReplicaOf accepted")
	}
	if _, err := Open(Options{ReplAddr: ":0"}); err == nil {
		t.Fatal("ReplAddr without Dir accepted")
	}
	if _, err := Open(Options{ReplicaOf: "localhost:1"}); err == nil {
		t.Fatal("ReplicaOf without Dir accepted")
	}
}

func TestFacadeReplicationAndPromote(t *testing.T) {
	leader, err := Open(Options{Dir: t.TempDir(), PoolSize: 32, ReplAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if leader.ReplAddr() == "" {
		t.Fatal("leader reports no repl address")
	}

	follower, err := Open(Options{
		Dir: t.TempDir(), PoolSize: 32, ReplicaOf: leader.ReplAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// Schema lives in code: both sides define the class.
	for _, db := range []*Database{leader, follower} {
		if _, err := db.DefineClass("STOCK", "", false); err != nil {
			t.Fatal(err)
		}
	}

	tx, err := leader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := leader.New(tx, "STOCK", map[string]any{"price": 42.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Bind(tx, "ACME", obj.OID); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Writes on the follower are refused while it follows.
	if _, err := follower.Begin(); !errors.Is(err, ErrFollowerReadOnly) {
		t.Fatalf("follower Begin: got %v, want ErrFollowerReadOnly", err)
	}

	// The replicated object becomes visible to follower snapshot reads.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stx, err := follower.BeginSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		oid, rerr := follower.Resolve(stx, "ACME")
		var inst *Instance
		if rerr == nil {
			inst, rerr = follower.Load(stx, oid)
		}
		_ = stx.Commit()
		if rerr == nil {
			if got := inst.Attr("price").(float64); got != 42.0 {
				t.Fatalf("follower read price %v, want 42", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicated object never became visible: %v", rerr)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The replication metrics are exported.
	var text strings.Builder
	for _, s := range follower.Metrics().Snapshot() {
		text.WriteString(s.Name)
		text.WriteByte('\n')
	}
	for _, want := range []string{
		"sentinel_repl_apply_records_total",
		"sentinel_repl_connected",
		"sentinel_repl_failover_seconds",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("follower metrics missing %s", want)
		}
	}
	var leaderText strings.Builder
	for _, s := range leader.Metrics().Snapshot() {
		leaderText.WriteString(s.Name)
		leaderText.WriteByte('\n')
	}
	for _, want := range []string{
		"sentinel_repl_ship_records_total",
		"sentinel_repl_lag_records",
		"sentinel_repl_sessions",
	} {
		if !strings.Contains(leaderText.String(), want) {
			t.Fatalf("leader metrics missing %s", want)
		}
	}

	// Failover: the leader goes away, the follower takes over.
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Promote(); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("double promote: got %v, want ErrNotReplica", err)
	}
	wtx, err := follower.Begin()
	if err != nil {
		t.Fatalf("promoted database refuses writes: %v", err)
	}
	obj2, err := follower.New(wtx, "STOCK", map[string]any{"price": 7.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.Bind(wtx, "NEWCO", obj2.OID); err != nil {
		t.Fatal(err)
	}
	if err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}
	rtx, err := follower.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Resolve(rtx, "ACME"); err != nil {
		t.Fatalf("pre-failover object lost: %v", err)
	}
	if _, err := follower.Resolve(rtx, "NEWCO"); err != nil {
		t.Fatalf("post-failover object missing: %v", err)
	}
	_ = rtx.Commit()
}

// TestFacadeFollowerRestartMidTransaction: the leader's T updates X, deletes Y
// and inserts Z, indexed on price; T's records ship without its commit and
// the follower restarts. A follower's pages hold in-flight writes, so its
// directories must come from committed state only: a snapshot loads X's
// and Y's committed images, and neither Load(Z) nor an index probe finds
// Z. T's commit, or in the abort variant its rollback, then reaches the
// restarted follower's directories like any other.
func TestFacadeFollowerRestartMidTransaction(t *testing.T) {
	for _, commit := range []bool{true, false} {
		t.Run(fmt.Sprintf("commit=%t", commit), func(t *testing.T) {
			leader, err := Open(Options{Dir: t.TempDir(), PoolSize: 32, ReplAddr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			fdir := t.TempDir()
			openFollower := func() *Database {
				t.Helper()
				db, err := Open(Options{Dir: fdir, PoolSize: 32, ReplicaOf: leader.ReplAddr()})
				if err == nil {
					_, err = db.DefineClass("STOCK", "", false)
				}
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			follower := openFollower()
			if _, err := leader.DefineClass("STOCK", "", false); err != nil {
				t.Fatal(err)
			}
			tx, err := leader.Begin()
			if err != nil {
				t.Fatal(err)
			}
			x, err := leader.New(tx, "STOCK", map[string]any{"price": 1.0})
			var y *Instance
			if err == nil {
				y, err = leader.New(tx, "STOCK", map[string]any{"price": 2.0})
			}
			if err == nil {
				_, err = leader.CreateIndex(tx, "STOCK", "price", HashIndex)
			}
			if err == nil {
				err = tx.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}

			tx, err = leader.Begin()
			if err == nil {
				x.Attrs()["price"] = 10.0
				err = leader.Persist(tx, x)
			}
			if err == nil {
				err = leader.Delete(tx, y.OID)
			}
			var z *Instance
			if err == nil {
				z, err = leader.New(tx, "STOCK", map[string]any{"price": 99.0})
			}
			if err == nil {
				err = leader.store.FlushLog() // T ships without its commit
			}
			if err != nil {
				t.Fatal(err)
			}
			waitApplied(t, leader, follower)
			if err := follower.Close(); err != nil {
				t.Fatal(err)
			}
			follower = openFollower()
			defer follower.Close()
			wantFollower(t, follower, "restarted mid-transaction", map[OID]float64{x.OID: 1, y.OID: 2}, z.OID)

			if commit {
				err = tx.Commit()
			} else {
				err = tx.Abort()
			}
			if err != nil {
				t.Fatal(err)
			}
			waitApplied(t, leader, follower)
			if commit {
				wantFollower(t, follower, "after T committed", map[OID]float64{x.OID: 10, z.OID: 99}, y.OID)
			} else {
				wantFollower(t, follower, "after T aborted", map[OID]float64{x.OID: 1, y.OID: 2}, z.OID)
			}
		})
	}
}

// waitApplied waits until the follower has applied the leader's flushed log.
func waitApplied(t *testing.T, leader, follower *Database) {
	t.Helper()
	target := leader.store.LogFlushed()
	for deadline := time.Now().Add(10 * time.Second); follower.store.ReplApplied() < target; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower applied %d, leader flushed %d", follower.store.ReplApplied(), target)
		}
	}
}

// wantFollower checks a follower snapshot: each OID in prices loads with
// that price and is found by an index probe on it, and absent neither
// loads nor is found.
func wantFollower(t *testing.T, db *Database, when string, prices map[OID]float64, absent OID) {
	t.Helper()
	stx, err := db.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer stx.Commit()
	if _, err := db.Load(stx, absent); !errors.Is(err, object.ErrUnknownObject) {
		t.Fatalf("%s: Load(%v) = %v, want ErrUnknownObject", when, absent, err)
	}
	for oid, price := range prices {
		inst, err := db.Load(stx, oid)
		if err != nil || inst.Attr("price") != price {
			t.Fatalf("%s: Load(%v) = %v, %v; want price %v", when, oid, inst, err, price)
		}
	}
	probes, _, _, _, _ := db.QueryManager().Stats()
	for _, price := range []float64{1, 2, 10, 99} {
		rows, err := db.Query(stx, Q{Class: "STOCK", Where: query.Eq("price", price)})
		if err != nil {
			t.Fatal(err)
		}
		var found []OID
		for _, r := range rows {
			found = append(found, r.OID)
		}
		var want []OID
		for oid, p := range prices {
			if p == price {
				want = append(want, oid)
			}
		}
		if !slices.Equal(found, want) {
			t.Fatalf("%s: index probe price=%v found %v, want %v", when, price, found, want)
		}
	}
	if now, _, _, _, _ := db.QueryManager().Stats(); now-probes != 4 {
		t.Fatalf("%s: %d index probes for 4 queries", when, now-probes)
	}
}
