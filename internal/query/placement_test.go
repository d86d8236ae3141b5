package query

import (
	"fmt"
	"testing"

	"repro/internal/object"
	"repro/internal/storage"
)

// TestSmallClassFillsItsOwnPages loads in query_mix's shape — a large
// class, then a small one, then two indexes on the large one — and checks
// that the small class's objects sit on pages of their own, packed: at
// most one page more than their bytes need. Then one grouped aggregate
// over the small class reads exactly those pages, as the pages-scanned
// counter shows.
func TestSmallClassFillsItsOwnPages(t *testing.T) {
	const items, small, groups = 10000, 2000, 20
	e := newEnv(t)
	defer e.close()
	e.mustClass("ITEM", "")
	e.mustClass("SMALL", "")
	load := func(n int, class string, attrs func(i int) map[string]any) {
		for lo := 0; lo < n; lo += 2000 {
			tx := e.begin()
			for i := lo; i < min(lo+2000, n); i++ {
				if _, err := e.reg.New(tx, class, attrs(i)); err != nil {
					t.Fatal(err)
				}
			}
			e.commit(tx)
		}
	}
	load(items, "ITEM", func(i int) map[string]any {
		return map[string]any{"sym": fmt.Sprintf("S%06d", i), "bucket": float64(i % (items / 10)), "shadow": float64(i % (items / 10))}
	})
	load(small, "SMALL", func(i int) map[string]any {
		return map[string]any{"grp": float64(i % groups), "val": float64(i)}
	})
	tx := e.begin()
	for _, kind := range []IndexKind{HashIndex, OrderedIndex} {
		if _, err := e.qm.CreateIndex(tx, "ITEM", "bucket", kind); err != nil {
			t.Fatal(err)
		}
	}
	e.commit(tx)

	// A page holds PageSize bytes less its 16-byte header; a record costs
	// its bytes plus a 12-byte slot entry.
	const usable, slotEntry = storage.PageSize - 16, 12
	pages := e.st.FilePages(object.ClassFile("SMALL"))
	bytes, records := 0, 0
	for _, pid := range pages {
		if err := e.st.ViewPage(nil, pid, func(_ storage.RID, data []byte) bool {
			bytes += len(data) + slotEntry
			records++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if records != small {
		t.Fatalf("SMALL's file holds %d records, want its %d objects", records, small)
	}
	t.Logf("SMALL: %d objects, %d bytes, %d pages", small, bytes, len(pages))
	if limit := (bytes+usable-1)/usable + 1; len(pages) > limit {
		t.Fatalf("SMALL's %d objects (%d bytes) occupy %d pages, want at most %d", small, bytes, len(pages), limit)
	}

	sn, err := e.tm.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer e.commit(sn)
	before := e.qm.pagesScanned.Load()
	rows, err := e.qm.Run(sn, Q{Class: "SMALL", GroupBy: []string{"grp"}, Aggs: []Agg{{Op: Count}, {Op: Sum, Attr: "val"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != groups {
		t.Fatalf("aggregate returned %d groups, want %d", len(rows), groups)
	}
	if read := e.qm.pagesScanned.Load() - before; read != uint64(len(pages)) {
		t.Fatalf("the aggregate scanned %d pages, SMALL's file has %d", read, len(pages))
	}
}
