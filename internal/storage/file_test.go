package storage

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// TestCompactAndCandidatesAllocateNothing pins the two allocation-free
// paths of an insert: compaction re-places the records from one copy of
// the page, and the free-space probe fills a fixed array.
func TestCompactAndCandidatesAllocateNothing(t *testing.T) {
	p := newPage()
	for {
		if _, err := p.Insert(bytes.Repeat([]byte("r"), 300)); err != nil {
			break
		}
	}
	for i := uint16(0); i < p.NumSlots(); i += 2 {
		if err := p.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, p.compact); n != 0 {
		t.Fatalf("compact made %v allocations, want 0", n)
	}
	for i := uint16(1); i < p.NumSlots(); i += 2 {
		if got, err := p.Read(i); err != nil || !bytes.Equal(got, bytes.Repeat([]byte("r"), 300)) {
			t.Fatalf("slot %d after compaction: %q, %v", i, got, err)
		}
	}

	s := openTestStore(t)
	id, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Insert(id, 3, bytes.Repeat([]byte("x"), 500)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { s.spaceCandidates(3, 100) }); n != 0 {
		t.Fatalf("spaceCandidates made %v allocations, want 0", n)
	}
}

// filesOf maps every record of the store to the file of the page it is on
// and checks each file's page list holds exactly its pages.
func filesOf(t *testing.T, s *Store, files ...FileID) map[string]FileID {
	t.Helper()
	onFile := make(map[PageID]FileID)
	for _, f := range files {
		for _, pid := range s.FilePages(f) {
			if g, ok := onFile[pid]; ok {
				t.Fatalf("page %d listed in files %d and %d", pid, g, f)
			}
			onFile[pid] = f
		}
	}
	out := make(map[string]FileID)
	if err := s.ForEachRecord(func(rid RID, data []byte) error {
		f, ok := onFile[rid.Page]
		if !ok {
			return fmt.Errorf("record %q at %v is on a page of no file", data, rid)
		}
		out[string(data[:3])] = f
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFilesKeepTheirPages: records inserted into two files, interleaved,
// never share a page; an update that outgrows its page moves within its
// file; and the page lists come back from the page headers after a clean
// reopen, from the allocation records after a crash, and on a follower fed
// the log.
func TestFilesKeepTheirPages(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 60; i++ {
		rid, err := s.Insert(id, FileID(1+i%2), []byte(fmt.Sprintf("%03d", i)+string(bytes.Repeat([]byte("."), 200))))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}
	// Outgrow record 7's page: it moves, and stays in file 2.
	id, _ = s.Begin()
	moved, err := s.Update(id, rids[7], append([]byte("007"), bytes.Repeat([]byte("+"), 3000)...))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}
	if moved == rids[7] {
		t.Fatal("the growing update did not move its record")
	}
	want := make(map[string]FileID)
	for i := 0; i < 60; i++ {
		want[fmt.Sprintf("%03d", i)] = FileID(1 + i%2)
	}
	if got := filesOf(t, s, 1, 2); !maps.Equal(got, want) {
		t.Fatalf("records by file: %v, want %v", got, want)
	}
	pages := [2][]PageID{s.FilePages(1), s.FilePages(2)}

	fst := shipAll(t, s)
	if got := [2][]PageID{fst.FilePages(1), fst.FilePages(2)}; !slices.Equal(got[0], pages[0]) || !slices.Equal(got[1], pages[1]) {
		t.Fatalf("follower's file pages %v, leader's %v", got, pages)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Dir: dir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := [2][]PageID{s.FilePages(1), s.FilePages(2)}; !slices.Equal(got[0], pages[0]) || !slices.Equal(got[1], pages[1]) {
		t.Fatalf("file pages after reopen %v, before %v", got, pages)
	}
	defer s.Close()

	// A crash before any page reached disk: redo formats every page again,
	// with the file its allocation record names.
	cdir := t.TempDir()
	c, err := Open(Options{Dir: cdir, PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	id, _ = c.Begin()
	want = make(map[string]FileID)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("%03d", i)
		if _, err := c.Insert(id, FileID(1+i%2), []byte(key+string(bytes.Repeat([]byte("."), 300)))); err != nil {
			t.Fatal(err)
		}
		want[key] = FileID(1 + i%2)
	}
	if err := c.Commit(id); err != nil {
		t.Fatal(err)
	}
	crashed, err := Open(Options{Dir: cdir, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	if got := filesOf(t, crashed, 1, 2); !maps.Equal(got, want) {
		t.Fatalf("records by file after a crash: %v, want %v", got, want)
	}
}
