package storage

import (
	"path/filepath"
	"testing"
)

// TestUnpinDoesNotAllocate: the LRU links the frames themselves, so a
// Fetch + Unpin of a resident page allocates nothing.
func TestUnpinDoesNotAllocate(t *testing.T) {
	disk, err := OpenDisk(filepath.Join(t.TempDir(), "db.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if _, err := disk.Allocate(); err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPool(disk, 4, nil)
	if _, err := pool.Fetch(0); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(0, false)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := pool.Fetch(0); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(0, false)
	})
	if allocs != 0 {
		t.Fatalf("Fetch+Unpin of a resident page made %v allocations, want 0", allocs)
	}
}

// TestEvictionTakesLeastRecentlyUnpinned pins the LRU order through the
// intrusive list: re-fetching a page moves it to the recent end, and a
// pinned page is never a victim.
func TestEvictionTakesLeastRecentlyUnpinned(t *testing.T) {
	disk, err := OpenDisk(filepath.Join(t.TempDir(), "db.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for i := 0; i < 5; i++ {
		if _, err := disk.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	pool := newBufferPool(disk, 3, 1, nil)
	touch := func(id PageID) {
		t.Helper()
		if _, err := pool.Fetch(id); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	}
	resident := func(id PageID) bool {
		sh := pool.shard(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		_, ok := sh.frames[id]
		return ok
	}
	touch(0)
	touch(1)
	touch(2)
	touch(0) // 1 is now least recent
	touch(3) // evicts 1
	if resident(1) || !resident(0) || !resident(2) || !resident(3) {
		t.Fatal("eviction did not take the least recently unpinned page (1)")
	}
	if _, err := pool.Fetch(2); err != nil { // pinned: 0 is the only candidate
		t.Fatal(err)
	}
	touch(4)
	if resident(0) || !resident(2) {
		t.Fatal("eviction skipped the least recent unpinned page or took a pinned one")
	}
	pool.Unpin(2, false)
}
