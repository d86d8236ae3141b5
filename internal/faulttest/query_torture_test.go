package faulttest

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/query"
)

// TestQueryIndexRaceStress drives concurrent committers (price re-keys —
// index delete+insert pairs) against concurrent snapshot readers (probes
// and range scans) and finishes with the index≡scan oracle. Its value is
// under -race: the index directories are shared mutable state touched by
// writers at commit/abort time and readers at probe time.
func TestQueryIndexRaceStress(t *testing.T) {
	s, err := openQuery(t.TempDir(), Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	stk := s.(*queryStack)
	defer stk.st.Close()

	const nObjs, nWriters, nReaders, rounds = 64, 4, 4, 40

	tx, err := stk.tm.Begin()
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]event.OID, nObjs)
	for i := 0; i < nObjs; i++ {
		inst, err := stk.reg.New(tx, "STOCK", map[string]any{
			"sym": fmt.Sprintf("R%03d", i), "price": float64(i % 10),
		})
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = inst.OID
	}
	if _, err := stk.qm.CreateIndex(tx, "STOCK", "sym", query.HashIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := stk.qm.CreateIndex(tx, "STOCK", "price", query.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, nWriters+nReaders)

	// Writers: each owns a disjoint slice of the extent and re-keys
	// prices, sometimes aborting so the abort-undo path races the readers
	// too. Object locks are per OID, so writers of disjoint slices do not
	// conflict; a writer that is picked as a deadlock victim anyway aborts
	// and moves on like any application would.
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx, err := stk.tm.Begin()
				if err != nil {
					errc <- err
					return
				}
				conflicted := false
				for i := w; i < nObjs; i += nWriters {
					if i%3 != r%3 {
						continue
					}
					inst, err := stk.reg.Load(tx, oids[i])
					if err == nil {
						inst.Attrs()["price"] = float64((i + r) % 10)
						err = stk.reg.Persist(tx, inst)
					}
					if err != nil {
						if errIsLockConflict(err) {
							conflicted = true
							break
						}
						errc <- fmt.Errorf("writer %d: %w", w, err)
						tx.Abort()
						return
					}
				}
				if conflicted || r%5 == 4 {
					if err := tx.Abort(); err != nil {
						errc <- err
						return
					}
				} else if err := tx.Commit(); err != nil {
					errc <- fmt.Errorf("writer %d commit: %w", w, err)
					return
				}
			}
		}(w)
	}

	// Readers: snapshot transactions alternating hash probes and ordered
	// range scans. Every row returned must satisfy the predicate it was
	// asked for — the re-verify step is what makes racing stale postings
	// safe, so it is exactly what we assert.
	for rd := 0; rd < nReaders; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for r := 0; r < rounds*2; r++ {
				stx, err := stk.tm.BeginSnapshot()
				if err != nil {
					errc <- err
					return
				}
				var rows []query.Row
				var qerr error
				if r%2 == 0 {
					sym := fmt.Sprintf("R%03d", (rd*7+r)%nObjs)
					rows, qerr = stk.qm.Run(stx, query.Q{Class: "STOCK", Where: query.Eq("sym", sym)})
					if qerr == nil && len(rows) != 1 {
						qerr = fmt.Errorf("probe %s: %d rows", sym, len(rows))
					}
				} else {
					lo, hi := float64(r%5), float64(r%5+3)
					rows, qerr = stk.qm.Run(stx, query.Q{Class: "STOCK", Where: query.Between("price", lo, hi)})
					for _, row := range rows {
						if p, _ := row.Attrs["price"].(float64); qerr == nil && (p < lo || p > hi) {
							qerr = fmt.Errorf("range [%v,%v] returned price %v", lo, hi, p)
						}
					}
				}
				stx.Commit()
				if qerr != nil && !errIsLockConflict(qerr) {
					errc <- fmt.Errorf("reader %d: %w", rd, qerr)
					return
				}
			}
		}(rd)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesced: the directories must agree with the extent exactly.
	tx, err = stk.tm.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	for i := 0; i < nObjs; i++ {
		inst, err := stk.reg.Load(tx, oids[i])
		if err != nil {
			t.Fatal(err)
		}
		price := inst.Attrs()["price"].(float64)
		rows, err := stk.qm.Run(tx, query.Q{Class: "STOCK", Where: query.Eq("price", price)})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range rows {
			if r.OID == oids[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("object %d (price %v) not returned by its own price probe", oids[i], price)
		}
	}
	probes, ranges, _, _, _ := stk.qm.Stats()
	if probes == 0 || ranges == 0 {
		t.Fatalf("stress never exercised the indexes (probes=%d ranges=%d)", probes, ranges)
	}
}
