package sentinel_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sentinel "repro"
)

func TestOpenBadDirectory(t *testing.T) {
	// A file where the directory should be.
	dir := t.TempDir()
	clash := filepath.Join(dir, "clash")
	if err := os.WriteFile(clash, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sentinel.Open(sentinel.Options{Dir: filepath.Join(clash, "sub")}); err == nil {
		t.Fatal("Open under a file succeeded")
	}
}

func TestOpenBadGEDAddr(t *testing.T) {
	if _, err := sentinel.Open(sentinel.Options{GEDAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("Open with dead GED succeeded")
	}
}

func TestGlobalCallsWithoutGED(t *testing.T) {
	db, err := sentinel.Open(sentinel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ShareEvent("x"); !errors.Is(err, sentinel.ErrNoGED) {
		t.Fatalf("ShareEvent: %v", err)
	}
	if err := db.OnGlobalEvent("x", sentinel.Recent, func(*sentinel.Execution) error { return nil }); !errors.Is(err, sentinel.ErrNoGED) {
		t.Fatalf("OnGlobalEvent: %v", err)
	}
}

func TestDoubleCloseRejected(t *testing.T) {
	db, err := sentinel.Open(sentinel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err == nil {
		t.Fatal("double close succeeded")
	}
}

func TestRaiseUnknownEvent(t *testing.T) {
	db, err := sentinel.Open(sentinel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.RaiseEvent(nil, "ghost", nil); err == nil {
		t.Fatal("RaiseEvent(ghost) succeeded")
	}
	if err := db.DefineExplicitEvent("sig"); err != nil {
		t.Fatal(err)
	}
	if err := db.RaiseEvent(nil, "sig", nil); err != nil {
		t.Fatal(err)
	}
}

func TestExecSyntaxErrorSurfaces(t *testing.T) {
	db, err := sentinel.Open(sentinel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = db.Exec(`event x = ;`)
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("Exec error: %v", err)
	}
}

// A specification whose second rule fails installs neither rule; the event
// it declared before them stays.
func TestExecFailingRuleInstallsNoRuleOfTheSpec(t *testing.T) {
	db := openStockDB(t, "")
	db.BindAction("act", func(*sentinel.Execution) error { return nil })
	err := db.Exec(`
event both = e1 and e3;
rule First(both, true, act);
rule Second(both, true, unbound);
`)
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("Exec error: %v", err)
	}
	if _, err := db.GetRule("First"); err == nil {
		t.Fatal("rule declared before the failing one was installed")
	}
	if err := db.Exec(`rule First(both, true, act);`); err != nil {
		t.Fatalf("event of the failed spec is gone, or the rule name stayed reserved: %v", err)
	}
}

func TestDeleteAndUnknownLoadThroughFacade(t *testing.T) {
	db := openStockDB(t, t.TempDir())
	tx, _ := db.Begin()
	obj, err := db.New(tx, "STOCK", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(tx, obj.OID); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(tx, obj.OID); err == nil {
		t.Fatal("deleted object loadable")
	}
	if _, err := db.Resolve(tx, "never-bound"); err == nil {
		t.Fatal("unbound name resolved")
	}
	_ = tx.Commit()
}

func TestInstanceLevelRuleThroughFacade(t *testing.T) {
	// The paper's set_IBM_price: instance name resolved via the name
	// manager at rule compile time.
	db := openStockDB(t, t.TempDir())
	setup, _ := db.Begin()
	ibm, _ := db.New(setup, "STOCK", map[string]any{"qty": 10})
	dec, _ := db.New(setup, "STOCK", map[string]any{"qty": 10})
	if err := db.Bind(setup, "IBM", ibm.OID); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	var fired int
	db.BindAction("onIBM", func(*sentinel.Execution) error { fired++; return nil })
	if err := db.Exec(`
event ibm_price = begin STOCK("IBM").set_price(price);
rule R(ibm_price, true, onIBM);
`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	if _, err := db.Invoke(tx, dec, "set_price", 1.0); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("instance rule fired for the wrong object")
	}
	if _, err := db.Invoke(tx, ibm, "set_price", 2.0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired=%d", fired)
	}
	_ = tx.Commit()

	// Unknown instance name fails at compile time.
	if err := db.Exec(`event nope = begin STOCK("GHOST").set_price(price);`); err == nil {
		t.Fatal("unknown instance name compiled")
	}
}

func TestAdvanceTimeRunsTemporalRules(t *testing.T) {
	db := openStockDB(t, "")
	if err := db.Exec(`event overdue = e1 + 50;`); err != nil {
		t.Fatal(err)
	}
	var fired int
	db.BindAction("late", func(*sentinel.Execution) error { fired++; return nil })
	if err := db.Exec(`rule L(overdue, true, late);`); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	obj, _ := db.New(tx, "STOCK", map[string]any{"qty": 5})
	if _, err := db.Invoke(tx, obj, "sell_stock", 1); err != nil {
		t.Fatal(err)
	}
	db.AdvanceTime(100)
	if fired != 1 {
		t.Fatalf("temporal rule fired %d times", fired)
	}
	_ = tx.Commit()
}
