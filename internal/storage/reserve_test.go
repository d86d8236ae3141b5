package storage

import (
	"bytes"
	"testing"
)

// TestAbortRestoresShrunkenRecordAfterConcurrentFill pins the undo-space
// reservation: once a transaction shrinks a record, the freed bytes must
// stay unavailable to other inserters so the shrinker's rollback can always
// restore the before-image in place. Without the reservation the fillers
// consume the page and the abort fails with ErrNoSpace — which, one layer
// up, leaks the aborting transaction's locks.
func TestAbortRestoresShrunkenRecordAfterConcurrentFill(t *testing.T) {
	s := openTestStore(t)

	setup, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("b"), 2000)
	rid, err := s.Insert(setup, 0, big)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(setup); err != nil {
		t.Fatal(err)
	}

	shrinker, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	nrid, err := s.Update(shrinker, rid, []byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if nrid != rid {
		t.Fatalf("shrink moved the record: %v -> %v", rid, nrid)
	}

	// Another transaction tries to fill every page; it must not consume
	// the shrinker's reserved bytes.
	filler, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("f"), 200)
	for i := 0; i < 100; i++ {
		if _, err := s.Insert(filler, 0, chunk); err != nil {
			t.Fatalf("filler insert %d: %v", i, err)
		}
	}
	if err := s.Commit(filler); err != nil {
		t.Fatal(err)
	}

	if err := s.Abort(shrinker); err != nil {
		t.Fatalf("abort after concurrent fill: %v", err)
	}
	got, err := s.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("before-image not restored: got %d bytes", len(got))
	}
}

// TestDeletedSlotNotReusedBeforeResolution pins the slot half of the undo
// reservation: a slot tombstoned by an uncommitted delete must not be
// handed to another transaction's insert, or the deleter's rollback finds
// its RID occupied. Once the deleter resolves, the slot is fair game.
func TestDeletedSlotNotReusedBeforeResolution(t *testing.T) {
	s := openTestStore(t)

	setup, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	orig := []byte("original record payload")
	rid, err := s.Insert(setup, 0, orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(setup); err != nil {
		t.Fatal(err)
	}

	deleter, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(deleter, rid); err != nil {
		t.Fatal(err)
	}

	other, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	orid, err := s.Insert(other, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if orid == rid {
		t.Fatalf("insert reused slot %v of an unresolved delete", rid)
	}
	if err := s.Commit(other); err != nil {
		t.Fatal(err)
	}

	if err := s.Abort(deleter); err != nil {
		t.Fatalf("abort: %v", err)
	}
	got, err := s.Read(rid)
	if err != nil {
		t.Fatalf("read after rollback: %v", err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatalf("rollback did not restore the deleted record")
	}

	// After resolution the tombstone is reusable again.
	reuser, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(reuser, rid); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(reuser); err != nil {
		t.Fatal(err)
	}
	last, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	lrid, err := s.Insert(last, 0, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if lrid != rid {
		t.Fatalf("committed delete's slot not reused: got %v want %v", lrid, rid)
	}
	if err := s.Commit(last); err != nil {
		t.Fatal(err)
	}
}
