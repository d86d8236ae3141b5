package object

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/storage"
	"repro/internal/txn"
)

func TestCatalogRequiredBeforeUse(t *testing.T) {
	// A persistent registry without InitCatalog fails cleanly.
	dir := t.TempDir()
	st, err := storage.Open(storage.Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tm := txn.NewManager(st, lockmgr.New())
	r := NewRegistry(nil, st)
	stockClass(t, r)
	tx, _ := tm.Begin()
	if _, err := r.New(tx, "STOCK", nil); err == nil {
		t.Fatal("New without catalog succeeded")
	}
	if _, err := r.Load(tx, 1); err == nil {
		t.Fatal("Load without catalog succeeded")
	}
	if _, err := r.Resolve(tx, "x"); err == nil {
		t.Fatal("Resolve without catalog succeeded")
	}
	if err := r.Bind(tx, "x", 1); err == nil {
		t.Fatal("Bind without catalog succeeded")
	}
	if err := r.Delete(tx, 1); err == nil {
		t.Fatal("Delete without catalog succeeded")
	}
	if err := r.Unbind(tx, "x"); err == nil {
		t.Fatal("Unbind without catalog succeeded")
	}
	_ = tx.Abort()
}

func TestInitCatalogOnNonFreshStore(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(storage.Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tm := txn.NewManager(st, lockmgr.New())
	// Something else inserted first: record 0.0 is not the meta.
	tx, _ := tm.Begin()
	if _, err := tx.Insert(0, []byte("squatter")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(nil, st)
	tx2, _ := tm.Begin()
	err = r.InitCatalog(tx2)
	if err == nil {
		t.Fatal("InitCatalog on dirty store succeeded")
	}
	if !strings.Contains(err.Error(), "catalog") && !strings.Contains(err.Error(), "meta") {
		t.Fatalf("unhelpful error: %v", err)
	}
	_ = tx2.Abort()
}

func TestInitCatalogRequiresStore(t *testing.T) {
	r := NewRegistry(nil, nil)
	tm := txn.NewManager(nil, lockmgr.New())
	tx, _ := tm.Begin()
	if err := r.InitCatalog(tx); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("memory-mode InitCatalog: %v", err)
	}
	_ = tx.Abort()
}

func TestMemoryModeNameOps(t *testing.T) {
	r, tm := memEnv(t)
	stockClass(t, r)
	tx, _ := tm.Begin()
	obj, _ := r.New(tx, "STOCK", nil)
	if err := r.Bind(tx, "n", obj.OID); err != nil {
		t.Fatal(err)
	}
	oid, err := r.Resolve(tx, "n")
	if err != nil || oid != obj.OID {
		t.Fatalf("Resolve=%v err=%v", oid, err)
	}
	if _, err := r.Resolve(tx, "ghost"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("Resolve ghost: %v", err)
	}
	if err := r.Unbind(tx, "n"); err != nil {
		t.Fatal(err)
	}
	if err := r.Unbind(tx, "n"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("double Unbind: %v", err)
	}
	if err := r.Delete(tx, obj.OID); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tx, obj.OID); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("double Delete: %v", err)
	}
	if _, err := r.Load(tx, obj.OID); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("Load deleted: %v", err)
	}
	_ = tx.Commit()
}

func TestNewUnknownClass(t *testing.T) {
	r, tm := memEnv(t)
	tx, _ := tm.Begin()
	if _, err := r.New(tx, "GHOST", nil); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("New(GHOST): %v", err)
	}
	_ = tx.Abort()
}

func TestSelfAccessors(t *testing.T) {
	r, tm := memEnv(t)
	c := stockClass(t, r)
	c.DefineMethod(Method{
		Name: "inspect", Params: nil,
		Body: func(self *Self, _ []any) (any, error) {
			return self.OID(), nil
		},
	})
	tx, _ := tm.Begin()
	obj, _ := r.New(tx, "STOCK", nil)
	got, err := r.Invoke(tx, obj, "inspect")
	if err != nil || got != obj.OID {
		t.Fatalf("Self.OID()=%v err=%v", got, err)
	}
	_ = tx.Commit()
}

func TestClassMethodsListing(t *testing.T) {
	r, _ := memEnv(t)
	c := stockClass(t, r)
	ms := c.Methods()
	if len(ms) != 3 || ms[0] != "get_price" {
		t.Fatalf("Methods()=%v", ms)
	}
}

func TestSignatureErrors(t *testing.T) {
	r, _ := memEnv(t)
	stockClass(t, r)
	if _, err := r.Signature("GHOST", "m"); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("Signature unknown class: %v", err)
	}
	if _, err := r.Signature("STOCK", "ghost"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("Signature unknown method: %v", err)
	}
}

func TestPersistLargeObjectMoves(t *testing.T) {
	// Growing an object past its page forces relocation; the OID index
	// must follow.
	r, tm, _ := persistEnv(t)
	c := stockClass(t, r)
	c.DefineMethod(Method{
		Name: "grow", Params: []string{"n"}, Mutates: true,
		Body: func(self *Self, args []any) (any, error) {
			blob := make([]byte, 0, args[0].(int))
			for i := 0; i < args[0].(int); i++ {
				blob = append(blob, byte(i))
			}
			self.Set("blob", string(blob))
			return nil, nil
		},
	})
	tx, _ := tm.Begin()
	obj, _ := r.New(tx, "STOCK", nil)
	// Fill the object's page so the grown record cannot stay.
	for i := 0; i < 3; i++ {
		if _, err := r.New(tx, "STOCK", map[string]any{"pad": strings.Repeat("p", 900)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Invoke(tx, obj, "grow", 2500); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := tm.Begin()
	loaded, err := r.Load(tx2, obj.OID)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Attr("blob").(string)) != 2500 {
		t.Fatalf("blob len=%d", len(loaded.Attr("blob").(string)))
	}
	_ = tx2.Commit()
}

// TestInvokeOnARefusedShell: a rule condition's shell subtransaction reads
// through a snapshot, so invoking a reader takes no lock and the shell has
// not begun when the method event is signalled. If the store refuses to
// begin it, Invoke fails rather than signalling under no transaction.
func TestInvokeOnARefusedShell(t *testing.T) {
	st, err := storage.Open(storage.Options{Dir: t.TempDir(), PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tm := txn.NewManager(st, lockmgr.New())
	r := NewRegistry(nil, st)
	stockClass(t, r)
	tx, _ := tm.Begin()
	if err := r.InitCatalog(tx); err != nil {
		t.Fatal(err)
	}
	obj, err := r.New(tx, "STOCK", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	top, _ := tm.Begin()
	var sub txn.Txn
	if err := top.BeginShell(&sub, nil); err != nil {
		t.Fatal(err)
	}
	release, err := sub.UseSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	_ = st.Close()
	if _, err := r.Invoke(&sub, obj, "get_price"); !errors.Is(err, storage.ErrStoreClosed) {
		t.Fatalf("Invoke on a shell the store refuses: %v, want ErrStoreClosed", err)
	}
}

// A miss is an *Error that errors.Is reads as ErrUnknownObject, and it
// costs one allocation, the error itself: no message is formatted until
// one is asked for. Both kinds of miss are pinned — an OID the directory
// does not hold, and an entry whose record carries another object.
func TestLoadMissAllocatesOnlyItsError(t *testing.T) {
	r, tm, _ := persistEnv(t)
	if _, err := r.DefineClass("C", "", false); err != nil {
		t.Fatal(err)
	}
	tx, err := tm.Begin()
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.New(tx, "C", map[string]any{"x": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.New(tx, "C", map[string]any{"x": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	refB, _ := r.lookupRef(b.OID)
	r.oidMu.Lock()
	r.dir[uint64(a.OID)] = refB // a's entry now names b's record
	r.oidMu.Unlock()

	snap, err := tm.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = snap.Commit() }()
	want, slots := []string{"x"}, make([]event.Slot, 1)
	for _, oid := range []event.OID{b.OID + 1000, a.OID} {
		_, _, err := r.LoadSlots(snap, oid, want, slots, nil)
		var oe *Error
		if !errors.Is(err, ErrUnknownObject) || !errors.As(err, &oe) || oe.OID != oid || oe.Op != "load" {
			t.Fatalf("LoadSlots(%v) = %v, want an *Error for a load of %v", oid, err, oid)
		}
		if msg := err.Error(); !strings.Contains(msg, ErrUnknownObject.Error()) || !strings.Contains(msg, oid.String()) {
			t.Fatalf("miss message %q names neither the cause nor %v", msg, oid)
		}
		if got := testing.AllocsPerRun(200, func() { _, _, _ = r.LoadSlots(snap, oid, want, slots, nil) }); got != 1 {
			t.Fatalf("a miss of %v allocates %.1f times, want 1", oid, got)
		}
	}
}
