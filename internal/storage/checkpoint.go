package storage

import (
	"encoding/binary"
	"fmt"
)

// Fuzzy checkpoints (ARIES-style). A checkpoint no longer quiesces
// anything: it flushes what it can, then captures two fuzzy tables —
// the dirty-page table (page → recovery LSN, from the buffer frames'
// cleanLSN) and the active-transaction table (id, parent, first LSN) —
// and persists them with a redo point in the WAL manifest. Recovery
// scans from
//
//	RedoLSN = min(checkpoint record LSN,
//	              min recLSN over the dirty-page table,
//	              min firstLSN over the active-transaction table)
//
// instead of from zero. Correctness leans on two latch/lock disciplines
// the write paths maintain:
//
//   - every log record that mutates a page is appended while holding that
//     page's latch (Insert/Update/Delete/Alloc always did; Abort's CLRs
//     were reordered under the latch for this), so a mutation the
//     dirty-page walk misses has an LSN above the checkpoint record;
//   - Begin appends the begin record and registers the transaction inside
//     one txn-shard critical section, so a transaction the table walk
//     misses has its entire history above the checkpoint record.
//
// The firstLSN bound (rather than per-record prevLSN backchains) is what
// makes undo complete: every unresolved transaction in the table has its
// whole forward history at or above min firstLSN, so the redo scan
// rebuilds exactly the loser state the undo pass needs.

// ckptTxn is one active-transaction-table entry in a checkpoint image.
type ckptTxn struct {
	ID, Parent, FirstLSN uint64
}

// ckptImage is the decoded checkpoint payload stored in the WAL manifest.
type ckptImage struct {
	RedoLSN  uint64
	NextTxn  uint64
	CommitTS uint64
	Dirty    map[PageID]uint64
	Active   []ckptTxn
}

const ckptImageVersion = 1

func encodeCkptImage(img *ckptImage) []byte {
	out := make([]byte, 0, 32+12*len(img.Dirty)+24*len(img.Active))
	out = append(out, ckptImageVersion)
	out = binary.LittleEndian.AppendUint64(out, img.RedoLSN)
	out = binary.LittleEndian.AppendUint64(out, img.NextTxn)
	out = binary.LittleEndian.AppendUint64(out, img.CommitTS)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(img.Dirty)))
	for pid, rec := range img.Dirty {
		out = binary.LittleEndian.AppendUint32(out, uint32(pid))
		out = binary.LittleEndian.AppendUint64(out, rec)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(img.Active)))
	for _, t := range img.Active {
		out = binary.LittleEndian.AppendUint64(out, t.ID)
		out = binary.LittleEndian.AppendUint64(out, t.Parent)
		out = binary.LittleEndian.AppendUint64(out, t.FirstLSN)
	}
	return out
}

func decodeCkptImage(raw []byte) (*ckptImage, error) {
	bad := fmt.Errorf("storage: malformed checkpoint image")
	if len(raw) < 1 || raw[0] != ckptImageVersion {
		return nil, bad
	}
	p := raw[1:]
	take := func(n int) []byte {
		if len(p) < n {
			return nil
		}
		b := p[:n]
		p = p[n:]
		return b
	}
	hdr := take(28)
	if hdr == nil {
		return nil, bad
	}
	img := &ckptImage{
		RedoLSN:  binary.LittleEndian.Uint64(hdr[0:]),
		NextTxn:  binary.LittleEndian.Uint64(hdr[8:]),
		CommitTS: binary.LittleEndian.Uint64(hdr[16:]),
		Dirty:    make(map[PageID]uint64),
	}
	nDirty := binary.LittleEndian.Uint32(hdr[24:])
	for i := uint32(0); i < nDirty; i++ {
		b := take(12)
		if b == nil {
			return nil, bad
		}
		img.Dirty[PageID(binary.LittleEndian.Uint32(b))] = binary.LittleEndian.Uint64(b[4:])
	}
	nb := take(4)
	if nb == nil {
		return nil, bad
	}
	nActive := binary.LittleEndian.Uint32(nb)
	for i := uint32(0); i < nActive; i++ {
		b := take(24)
		if b == nil {
			return nil, bad
		}
		img.Active = append(img.Active, ckptTxn{
			ID:       binary.LittleEndian.Uint64(b),
			Parent:   binary.LittleEndian.Uint64(b[8:]),
			FirstLSN: binary.LittleEndian.Uint64(b[16:]),
		})
	}
	return img, nil
}

// collectATT snapshots the active-transaction table (all nesting levels),
// one shard lock at a time.
func (s *Store) collectATT() []ckptTxn {
	var out []ckptTxn
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, t := range sh.m {
			out = append(out, ckptTxn{ID: t.id, Parent: t.parent, FirstLSN: t.firstLSN})
		}
		sh.mu.Unlock()
	}
	return out
}

// Checkpoint takes a fuzzy checkpoint: flush dirty pages, log a checkpoint
// record, capture the dirty-page and active-transaction tables, persist
// the redo point in the manifest, and archive (CRC-verified) every sealed
// log segment wholly below it — pruning archived segments no connected
// follower still needs. Nothing is quiesced; writers run throughout.
// Checkpoint also runs a version-GC pass, so stores with the background
// collector disabled still reclaim on their checkpoint cadence.
func (s *Store) Checkpoint() error {
	if s.follower.Load() {
		return s.followerCheckpoint()
	}
	s.VersionGC()
	// Flush first so the dirty-page table collected below is small and the
	// redo point actually advances; pages re-dirtied during or after the
	// flush land in the table with conservative recLSNs.
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	// The checkpoint record is the fuzziness bound: everything the two
	// table walks below race with is ordered (by page latch or txn-shard
	// mutex) after this append, hence above this LSN.
	b, err := s.wal.Append(&LogRecord{Type: RecCheckpoint, Active: s.ActiveTxns()})
	if err != nil {
		return err
	}
	// Every timestamp handed out, published or not: a commit record below
	// the redo point whose commit failed still carries one, and a
	// follower may have published it.
	s.commitMu.Lock()
	lastTS := s.lastTS
	s.commitMu.Unlock()
	img := s.checkpointImage(b, lastTS)
	if err := s.waitDurable(b + 1); err != nil {
		return err
	}
	return s.saveCheckpoint(img)
}

// followerCheckpoint is the follower's variant: it must not append to the
// log (a follower's log is byte-identical to the leader's), so the redo
// point is bounded by the local log end instead of a checkpoint record,
// and the apply mutex stands in for fuzziness — nothing mutates while it
// is held.
func (s *Store) followerCheckpoint() error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.VersionGC()
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	if err := s.wal.Flush(^uint64(0)); err != nil {
		return err
	}
	img := s.checkpointImage(s.wal.End(), s.commitTS.Load())
	return s.saveCheckpoint(img)
}

// checkpointImage captures the active-transaction and dirty-page tables
// and the redo point they bound, at most bound.
func (s *Store) checkpointImage(bound, commitTS uint64) *ckptImage {
	img := &ckptImage{RedoLSN: bound, Active: s.collectATT(), Dirty: s.pool.DirtyPages(),
		NextTxn: s.nextTxn.Load(), CommitTS: commitTS}
	for _, rec := range img.Dirty {
		img.RedoLSN = min(img.RedoLSN, rec)
	}
	for _, t := range img.Active {
		img.RedoLSN = min(img.RedoLSN, t.FirstLSN)
	}
	return img
}

// saveCheckpoint persists img's redo point in the manifest, archives
// sealed segments wholly below it and prunes archived ones below what
// lagging followers still need.
func (s *Store) saveCheckpoint(img *ckptImage) error {
	if err := s.wal.SetCheckpoint(img.RedoLSN, encodeCkptImage(img)); err != nil {
		return err
	}
	if _, err := s.wal.Archive(img.RedoLSN); err != nil {
		return err
	}
	_, err := s.wal.Prune(s.retainFloor(img.RedoLSN))
	return err
}
