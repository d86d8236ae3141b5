package object

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/lockmgr"
	"repro/internal/storage"
	"repro/internal/txn"
)

// everyTag holds one attribute per value tag of the codec (and the edge
// values of the wide ones). The round trip must return each with the same
// concrete Go type.
var everyTag = map[string]any{
	"nil":      nil,
	"true":     true,
	"false":    false,
	"int":      int(-3),
	"int-min":  math.MinInt,
	"int8":     int8(-8),
	"int16":    int16(-16),
	"int32":    int32(-32),
	"int64":    int64(math.MaxInt64),
	"uint":     uint(3),
	"uint8":    uint8(200),
	"uint16":   uint16(16),
	"uint32":   uint32(32),
	"uint64":   uint64(math.MaxUint64),
	"float32":  float32(1.5),
	"float64":  float64(3), // integral: must stay a float
	"float-ni": math.Inf(-1),
	"string":   "héllo",
	"empty":    "",
	"oid":      event.OID(77),
}

// TestValueTagsSurviveReopen: New → commit → close → reopen → Load keeps
// the concrete type of every tagged value.
func TestValueTagsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Registry, *txn.Manager, *storage.Store) {
		st, err := storage.Open(storage.Options{Dir: dir, PoolSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		tm := txn.NewManager(st, lockmgr.New())
		r := NewRegistry(nil, st)
		stockClass(t, r)
		tx, _ := tm.Begin()
		if err := r.InitCatalog(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return r, tm, st
	}
	r, tm, st := open()
	tx, _ := tm.Begin()
	obj, err := r.New(tx, "STOCK", everyTag)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	r2, tm2, st2 := open()
	defer st2.Close()
	tx2, _ := tm2.Begin()
	defer tx2.Abort()
	got, err := r2.Load(tx2, obj.OID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Attrs()) != len(everyTag) {
		t.Fatalf("loaded %d attributes, stored %d", len(got.Attrs()), len(everyTag))
	}
	for name, want := range everyTag {
		have, ok := got.Attrs()[name]
		if !ok || !reflect.DeepEqual(have, want) {
			t.Errorf("%s: stored %T(%v), loaded %T(%v) present=%v", name, want, want, have, have, ok)
		}
	}
}

// TestEncodeIsDeterministic: equal state is equal bytes, whatever order the
// map was filled in (more attributes than the encoder's stack buffer).
func TestEncodeIsDeterministic(t *testing.T) {
	const n = 40
	want, err := appendObject(nil, 9, "STOCK", everyTag)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		fwd, rev := map[string]any{}, map[string]any{}
		for i := 0; i < n; i++ {
			fwd[fmt.Sprintf("a%02d", i)] = i
			rev[fmt.Sprintf("a%02d", n-1-i)] = n - 1 - i
		}
		a, err := appendObject(nil, 7, "STOCK", fwd)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := appendObject(nil, 7, "STOCK", rev)
		if !bytes.Equal(a, b) {
			t.Fatalf("round %d: same state, different bytes", round)
		}
		if again, _ := appendObject(nil, 9, "STOCK", everyTag); !bytes.Equal(again, want) {
			t.Fatalf("round %d: re-encode differs", round)
		}
	}
}

// hookSpy is an IndexHook that claims every class is indexed and counts
// the maintenance calls it receives.
type hookSpy struct{ calls int }

func (h *hookSpy) Indexed(string) bool { return true }
func (h *hookSpy) OnCreate(*txn.Txn, string, event.OID, storage.RID, map[string]any) error {
	h.calls++
	return nil
}
func (h *hookSpy) OnUpdate(*txn.Txn, string, event.OID, storage.RID, map[string]any, map[string]any) error {
	h.calls++
	return nil
}
func (h *hookSpy) OnDelete(*txn.Txn, string, event.OID, storage.RID, map[string]any) error {
	h.calls++
	return nil
}

// TestNonAtomicValueRejected: a value outside the atomic set fails New and
// Persist with an error naming the attribute and its type, before any heap
// write or index hook — the transaction carries on as if the call had not
// been made.
func TestNonAtomicValueRejected(t *testing.T) {
	r, tm, _ := persistEnv(t)
	stockClass(t, r)
	spy := &hookSpy{}
	r.SetIndexHook(spy)
	tx, _ := tm.Begin()

	for name, bad := range map[string]any{
		"slice":  []int{1},
		"struct": struct{ X int }{1},
		"map":    map[string]any{"k": 1},
	} {
		_, err := r.New(tx, "STOCK", map[string]any{"price": 1.0, "bad": bad})
		if err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), fmt.Sprintf("%T", bad)) {
			t.Fatalf("New with %s value: %v", name, err)
		}
	}
	if spy.calls != 0 {
		t.Fatalf("index hook ran %d times for rejected creates", spy.calls)
	}
	if oids := r.ExtentOIDs("STOCK", false); len(oids) != 0 {
		t.Fatalf("rejected creates left directory entries %v", oids)
	}
	obj, err := r.New(tx, "STOCK", map[string]any{"price": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if obj.OID != 1 {
		t.Fatalf("rejected creates consumed OIDs: first object is %v", obj.OID)
	}

	spy.calls = 0
	if _, err := r.Invoke(tx, obj, "set_price", []string{"x"}); err == nil ||
		!strings.Contains(err.Error(), `"price"`) || !strings.Contains(err.Error(), "[]string") {
		t.Fatalf("Invoke storing a slice: %v", err)
	}
	if spy.calls != 0 {
		t.Fatalf("index hook ran %d times for a rejected persist", spy.calls)
	}
	stored, err := r.Load(tx, obj.OID)
	if err != nil || stored.Attr("price") != 1.0 {
		t.Fatalf("stored state after rejected persist: %v %v", stored, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderOnlyWhenUnindexed: with no index over the class, update and
// delete validate the before-image by its header alone and never call the
// hook.
func TestHeaderOnlyWhenUnindexed(t *testing.T) {
	r, tm, _ := persistEnv(t)
	stockClass(t, r)
	spy := &unindexedSpy{}
	r.SetIndexHook(spy)
	tx, _ := tm.Begin()
	obj, err := r.New(tx, "STOCK", map[string]any{"price": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Invoke(tx, obj, "set_price", 2.0); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tx, obj.OID); err != nil {
		t.Fatal(err)
	}
	if spy.calls != 0 {
		t.Fatalf("hook called %d times for an unindexed class", spy.calls)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

type unindexedSpy struct{ hookSpy }

func (*unindexedSpy) Indexed(string) bool { return false }

func TestNameMapRoundTrip(t *testing.T) {
	in := map[string]uint64{"": 1, "ACME": 7, "zeta": math.MaxUint64}
	data, err := appendNames(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeNames(data)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v %v", out, err)
	}
	if _, err := decodeNames(data[:len(data)-1]); !errors.Is(err, event.ErrMalformed) {
		t.Fatalf("truncated name map: %v", err)
	}
	if _, err := appendNames(nil, map[string]uint64{strings.Repeat("x", event.MaxString+1): 1}); err == nil {
		t.Fatal("over-long name accepted")
	}
}

// FuzzObjectRecord: arbitrary bytes never panic the decoders or make them
// allocate past the codec's limits; only a record of KindObject decodes as
// an object (index postings, the index catalog, the name map and the meta
// record never do); and what decodes re-encodes to a fixed point.
func FuzzObjectRecord(f *testing.F) {
	obj, _ := appendObject(nil, 9, "STOCK", everyTag)
	names, _ := appendNames(nil, map[string]uint64{"ACME": 7, "IBM": 8})
	f.Add(obj)
	f.Add(names)
	f.Add(meta{nextOID: 5, nameRID: storage.RID{Page: 1, Slot: 2}}.encode())
	f.Add([]byte{KindIndexEntry, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 1, 0x10})
	f.Add([]byte{KindIndexCatalog, 1, 1, 5, 'S', 'T', 'O', 'C', 'K', 1, 'k', 1})
	f.Add([]byte{KindObject, 1, 1, 'C', 2, 1, 'b', 0, 1, 'a', 0}) // names out of order
	f.Add([]byte{KindObject, 1, 1, 'C', 0xFF, 0xFF, 0x03})        // count past the payload
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := decodeNames(data); err == nil {
			if data[0] != KindNames {
				t.Fatalf("kind %#x decoded as the name map", data[0])
			}
			re, err := appendNames(nil, m)
			if err != nil {
				t.Fatalf("re-encode name map: %v", err)
			}
			if m2, err := decodeNames(re); err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("name map round trip: %v %v", m2, err)
			}
		}
		rd := event.NewReader(data)
		oid, class, ok := readHeader(rd)
		if !ok {
			return
		}
		if data[0] != KindObject {
			t.Fatalf("kind %#x decoded as an object", data[0])
		}
		attrs, ok := readAttrs(rd, nil)
		if !ok {
			return
		}
		if len(attrs) > maxAttrs || len(attrs) > len(data) {
			t.Fatalf("%d attributes from %d bytes", len(attrs), len(data))
		}
		enc, err := appendObject(nil, oid, string(class), attrs)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		rd2 := event.NewReader(enc)
		oid2, class2, ok := readHeader(rd2)
		if !ok || oid2 != oid || !bytes.Equal(class2, class) {
			t.Fatalf("header round trip: %d %q %v", oid2, class2, ok)
		}
		attrs2, ok := readAttrs(rd2, &nameTable{})
		if !ok {
			t.Fatal("re-encoded record does not decode")
		}
		// NaN != NaN, so compare states by their (deterministic) bytes.
		if enc2, _ := appendObject(nil, oid2, string(class2), attrs2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

// TestLoadAttrsRejectsWhatLoadRejects: a directory entry pointing at
// another object's record (a reused slot), and one whose record's class is
// not registered here, fail LoadAttrs exactly as they fail Load, whatever
// attributes are wanted — the decode-only read skips none of Load's checks.
func TestLoadAttrsRejectsWhatLoadRejects(t *testing.T) {
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
	r.dir.set(uint64(a.OID), refB) // a's entry now names b's record
	r.oidMu.Unlock()

	tx, err = tm.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Commit() }()
	if _, err := r.Load(tx, a.OID); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("Load through a stale entry: %v, want ErrUnknownObject", err)
	}
	for _, want := range [][]string{nil, {}, {"x"}} {
		if _, _, err := r.LoadAttrs(tx, a.OID, want, map[string]any{"x": 9.0}); !errors.Is(err, ErrUnknownObject) {
			t.Fatalf("LoadAttrs(want=%v) through a stale entry: %v, want ErrUnknownObject", want, err)
		}
	}

	// A registry that never defined C reads the same record as unknown.
	other := NewRegistry(nil, r.store)
	other.oidMu.Lock()
	other.dir.set(uint64(b.OID), refB)
	other.oidMu.Unlock()
	if _, err := other.Load(tx, b.OID); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("Load of an unregistered class: %v, want ErrUnknownClass", err)
	}
	if _, _, err := other.LoadAttrs(tx, b.OID, []string{"x"}, nil); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("LoadAttrs of an unregistered class: %v, want ErrUnknownClass", err)
	}
}
