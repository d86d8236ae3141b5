package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func newPage() *Page {
	p := &Page{ID: 1}
	p.InitPage(0)
	return p
}

func TestPageInsertRead(t *testing.T) {
	p := newPage()
	slot, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(slot)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Read=%q err=%v", got, err)
	}
	if p.NumSlots() != 1 || !p.Live(slot) {
		t.Fatalf("NumSlots=%d Live=%v", p.NumSlots(), p.Live(slot))
	}
}

func TestPageReadErrors(t *testing.T) {
	p := newPage()
	if _, err := p.Read(0); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("Read empty: %v", err)
	}
	slot, _ := p.Insert([]byte("x"))
	if err := p.Delete(slot); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(slot); !errors.Is(err, ErrSlotDeleted) {
		t.Fatalf("Read deleted: %v", err)
	}
	if err := p.Delete(slot); !errors.Is(err, ErrSlotDeleted) {
		t.Fatalf("double Delete: %v", err)
	}
	if err := p.Delete(99); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("Delete bad slot: %v", err)
	}
}

func TestPageSlotReuse(t *testing.T) {
	p := newPage()
	s0, _ := p.Insert([]byte("a"))
	s1, _ := p.Insert([]byte("b"))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s0 {
		t.Fatalf("tombstoned slot not reused: got %d want %d", s2, s0)
	}
	if got, _ := p.Read(s1); string(got) != "b" {
		t.Fatalf("neighbour clobbered: %q", got)
	}
}

func TestPageUpdateInPlaceAndRelocate(t *testing.T) {
	p := newPage()
	slot, _ := p.Insert([]byte("abcdef"))
	if err := p.Update(slot, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Read(slot); string(got) != "xy" {
		t.Fatalf("in-place update: %q", got)
	}
	// Grow: relocation within the page.
	big := bytes.Repeat([]byte("z"), 100)
	if err := p.Update(slot, big); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Read(slot); !bytes.Equal(got, big) {
		t.Fatalf("relocated update mismatch (%d bytes)", len(got))
	}
}

func TestPageUpdateNoSpaceRestoresOld(t *testing.T) {
	p := newPage()
	// Fill the page nearly full.
	filler := bytes.Repeat([]byte("f"), 1000)
	var slots []uint16
	for {
		s, err := p.Insert(filler)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) == 0 {
		t.Fatal("no inserts succeeded")
	}
	target := slots[0]
	huge := bytes.Repeat([]byte("h"), PageSize) // cannot ever fit
	if err := p.Update(target, huge); !errors.Is(err, ErrNoSpace) && !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("Update huge: %v", err)
	}
	got, err := p.Read(target)
	if err != nil || !bytes.Equal(got, filler) {
		t.Fatalf("old record not restored after failed update: err=%v len=%d", err, len(got))
	}
}

func TestPageCompactionReclaims(t *testing.T) {
	p := newPage()
	rec := bytes.Repeat([]byte("r"), 400)
	var slots []uint16
	for {
		s, err := p.Insert(rec)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	// Delete every other record, then insert one that only fits after
	// compaction coalesces the holes.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("B"), 700)
	if _, err := p.Insert(big); err != nil {
		t.Fatalf("insert after fragmentation: %v", err)
	}
	// Survivors intact?
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Read(slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("slot %d corrupted by compaction: %v", slots[i], err)
		}
	}
}

func TestPageInsertAt(t *testing.T) {
	p := newPage()
	if err := p.InsertAt(3, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 4 {
		t.Fatalf("NumSlots=%d want 4", p.NumSlots())
	}
	if got, _ := p.Read(3); string(got) != "late" {
		t.Fatalf("Read(3)=%q", got)
	}
	for i := uint16(0); i < 3; i++ {
		if p.Live(i) {
			t.Fatalf("slot %d should be tombstone", i)
		}
	}
	if err := p.InsertAt(3, []byte("again")); !errors.Is(err, ErrSlotOccupied) {
		t.Fatalf("InsertAt occupied: %v", err)
	}
	if err := p.InsertAt(0, []byte("fill")); err != nil {
		t.Fatalf("InsertAt tombstone: %v", err)
	}
}

func TestPageRecordTooBig(t *testing.T) {
	p := newPage()
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("Insert too big: %v", err)
	}
	if err := p.InsertAt(0, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("InsertAt too big: %v", err)
	}
}

func TestPageLSN(t *testing.T) {
	p := newPage()
	if p.LSN() != 0 {
		t.Fatalf("fresh page LSN=%d", p.LSN())
	}
	p.SetLSN(42)
	if p.LSN() != 42 {
		t.Fatalf("LSN=%d want 42", p.LSN())
	}
}

// Property: a random sequence of inserts/deletes/updates leaves the page
// consistent with a map-based model.
func TestQuickPageModel(t *testing.T) {
	f := func(ops []uint16, payloads []uint8) bool {
		p := newPage()
		model := map[uint16][]byte{}
		var slots []uint16
		payload := func(i int) []byte {
			if len(payloads) == 0 {
				return []byte{1}
			}
			n := int(payloads[i%len(payloads)])%64 + 1
			return bytes.Repeat([]byte{payloads[i%len(payloads)]}, n)
		}
		for i, op := range ops {
			switch op % 3 {
			case 0: // insert
				data := payload(i)
				s, err := p.Insert(data)
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					return false
				}
				model[s] = data
				slots = append(slots, s)
			case 1: // delete
				if len(slots) == 0 {
					continue
				}
				s := slots[int(op)%len(slots)]
				if _, live := model[s]; !live {
					continue
				}
				if err := p.Delete(s); err != nil {
					return false
				}
				delete(model, s)
			case 2: // update
				if len(slots) == 0 {
					continue
				}
				s := slots[int(op)%len(slots)]
				if _, live := model[s]; !live {
					continue
				}
				data := payload(i + 1)
				err := p.Update(s, data)
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					return false
				}
				model[s] = data
			}
		}
		for s, want := range model {
			got, err := p.Read(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRIDString(t *testing.T) {
	r := RID{Page: 7, Slot: 3}
	if r.String() != "7.3" {
		t.Fatalf("RID.String()=%q", r.String())
	}
	_ = fmt.Sprint(r)
}
