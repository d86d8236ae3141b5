package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrPoolFull is returned when every frame in the buffer pool is pinned.
var ErrPoolFull = errors.New("storage: buffer pool full (all frames pinned)")

// frame is one buffer-pool slot.
//
// The latch serializes access to the page contents: Fetch and NewPage
// return with it held, Unpin releases it. The shard mutex covers only the
// table/LRU bookkeeping (pins, dirty, residency), never page contents, so
// page I/O and record edits on different pages proceed in parallel even
// within one shard.
//
// Invariant: only a goroutine that has pinned a frame may latch it, so an
// unpinned frame's latch is always free — eviction (which only considers
// unpinned frames) never blocks on a latch while holding the shard mutex.
type frame struct {
	page    Page
	latch   sync.Mutex
	pins    int
	dirty   bool
	loading bool // a miss is reading this page from disk
	// The shard's LRU links: inLRU iff unpinned and resident.
	prev, next *frame
	inLRU      bool

	// cleanLSN is the page's LSN the last time this frame matched the
	// on-disk copy (at load, after write-back) — or, for a brand-new page,
	// the log position when it materialized. It is the frame's recovery
	// LSN for fuzzy checkpoints: any log record that dirtied the frame
	// after that moment has LSN > cleanLSN, so redo from min(cleanLSN over
	// dirty frames) covers every unpersisted change. Guarded like dirty:
	// shard mutex or latch+pin.
	cleanLSN uint64
}

// flushLogFunc is called before a dirty page is written, with the page LSN,
// to enforce the WAL rule (log-before-data).
type flushLogFunc func(upToLSN uint64) error

// poolShard is one lock stripe: its own mutex, frame table, LRU list, and
// capacity slice. The LRU list is intrusive — it links the frames
// themselves, head least recently used — so unpinning allocates nothing.
// Pages hash to shards by PageID, so concurrent transactions touching
// different pages rarely contend.
type poolShard struct {
	mu       sync.Mutex
	loaded   *sync.Cond // signalled when a loading frame settles
	capacity int
	frames   map[PageID]*frame
	lruHead  *frame // least recently used unpinned frame; nil when none
	lruTail  *frame
}

// BufferPool caches pages in memory with LRU replacement and pin counting,
// lock-striped across shards hashed by PageID. Dirty pages are written
// back on eviction and on FlushAll, always after forcing the log up to the
// page LSN (WAL rule).
type BufferPool struct {
	disk     *DiskManager
	flushLog flushLogFunc
	lsnNow   func() uint64 // current log end, for new pages' cleanLSN; may be nil
	shards   []*poolShard

	// Page-lookup and write-back counters, readable without any lock
	// (benchmark harness and metrics registry).
	hits, misses, writes atomic.Uint64
}

// poolShards is the pool's lock-stripe count (fewer when the capacity is
// smaller).
const poolShards = 8

// Stats returns the pool's hit, miss, and page write-back counts.
func (b *BufferPool) Stats() (hits, misses, writes uint64) {
	return b.hits.Load(), b.misses.Load(), b.writes.Load()
}

// NewBufferPool creates a pool of the given total capacity over disk,
// split across min(8, capacity) shards. flushLog may be nil when no WAL is
// in use (tests, read-only tools).
func NewBufferPool(disk *DiskManager, capacity int, flushLog flushLogFunc) *BufferPool {
	return newBufferPool(disk, capacity, poolShards, flushLog)
}

// newBufferPool creates a pool with an explicit shard count (the LRU test
// uses one shard to see a single eviction order). The shard count never
// exceeds the capacity, so tiny pools (the eviction and all-pinned tests
// use capacities 1 and 2) keep their exact total capacity and LRU
// behavior.
func newBufferPool(disk *DiskManager, capacity, shards int, flushLog flushLogFunc) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if shards > capacity {
		shards = capacity
	}
	b := &BufferPool{
		disk:     disk,
		flushLog: flushLog,
		shards:   make([]*poolShard, shards),
	}
	base, extra := capacity/shards, capacity%shards
	for i := range b.shards {
		cap := base
		if i < extra {
			cap++
		}
		sh := &poolShard{
			capacity: cap,
			frames:   make(map[PageID]*frame, cap),
		}
		sh.loaded = sync.NewCond(&sh.mu)
		b.shards[i] = sh
	}
	return b
}

// SetLSNSource installs the function that reports the current end of the
// log, used to stamp a conservative cleanLSN on pages that have never been
// written to disk (NewPage). Wired by Open after the WAL exists; pools
// without a WAL leave it nil and new pages get recovery LSN zero, which is
// merely conservative.
func (b *BufferPool) SetLSNSource(fn func() uint64) { b.lsnNow = fn }

func (b *BufferPool) shard(id PageID) *poolShard {
	return b.shards[uint64(id)%uint64(len(b.shards))]
}

// Fetch pins page id into the pool, reading it from disk on a miss, and
// returns the in-memory page latched for the caller's exclusive use. The
// caller must Unpin it when done.
//
// On a miss the frame is registered as "loading" and the disk read happens
// outside the shard mutex; concurrent fetchers of the same page wait on
// the shard's condition variable instead of issuing duplicate reads. A
// failed read deregisters the frame before anyone can see it — a dead
// frame must never stay in the table, where it would serve garbage to
// later fetchers and pin a capacity slot forever.
func (b *BufferPool) Fetch(id PageID) (*Page, error) {
	sh := b.shard(id)
	sh.mu.Lock()
	for {
		fr, ok := sh.frames[id]
		if !ok {
			break
		}
		if fr.loading {
			sh.loaded.Wait()
			continue // the load settled or failed; re-check the table
		}
		b.hits.Add(1)
		sh.pinLocked(fr)
		sh.mu.Unlock()
		fr.latch.Lock()
		return &fr.page, nil
	}
	b.misses.Add(1)
	fr, err := sh.newFrameLocked(b)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	fr.loading = true
	fr.pins = 1
	sh.frames[id] = fr
	sh.mu.Unlock()

	err = b.disk.ReadPage(id, &fr.page)

	sh.mu.Lock()
	fr.loading = false
	if err != nil {
		delete(sh.frames, id)
		sh.loaded.Broadcast()
		sh.mu.Unlock()
		return nil, err
	}
	fr.cleanLSN = fr.page.LSN() // fresh from disk: frame matches the disk copy
	sh.loaded.Broadcast()
	sh.mu.Unlock()
	fr.latch.Lock()
	return &fr.page, nil
}

// NewPage allocates a fresh page on disk, formats it as an empty slotted
// page of file, and returns it pinned and latched.
func (b *BufferPool) NewPage(file FileID) (*Page, error) {
	id, err := b.disk.Allocate()
	if err != nil {
		return nil, err
	}
	sh := b.shard(id)
	sh.mu.Lock()
	fr, err := sh.newFrameLocked(b)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	fr.page.ID = id
	fr.page.InitPage(file)
	fr.pins = 1
	fr.dirty = true
	// Never persisted: the page's whole history starts at the log's
	// current end (its alloc record is appended under the latch we return
	// holding), so that is its recovery LSN.
	if b.lsnNow != nil {
		fr.cleanLSN = b.lsnNow()
	}
	sh.frames[id] = fr
	sh.mu.Unlock()
	fr.latch.Lock()
	return &fr.page, nil
}

// Unpin releases the caller's latch and one pin on page id, marking the
// page dirty if it was modified while pinned.
func (b *BufferPool) Unpin(id PageID, dirty bool) {
	sh := b.shard(id)
	sh.mu.Lock()
	fr, ok := sh.frames[id]
	if !ok || fr.pins == 0 {
		sh.mu.Unlock()
		panic(fmt.Sprintf("storage: Unpin of page %d that is not pinned", id))
	}
	// Set under the latch as well as the shard mutex: flushOne and
	// DirtyPages read dirty holding only the latch.
	fr.dirty = fr.dirty || dirty
	fr.latch.Unlock()
	sh.unpinLocked(fr)
	sh.mu.Unlock()
}

func (sh *poolShard) pinLocked(fr *frame) {
	if fr.pins == 0 && fr.inLRU {
		sh.lruRemove(fr)
	}
	fr.pins++
}

// unpinLocked drops one pin; the last one makes the frame the most
// recently used eviction candidate.
func (sh *poolShard) unpinLocked(fr *frame) {
	fr.pins--
	if fr.pins > 0 {
		return
	}
	fr.prev, fr.next, fr.inLRU = sh.lruTail, nil, true
	if sh.lruTail != nil {
		sh.lruTail.next = fr
	} else {
		sh.lruHead = fr
	}
	sh.lruTail = fr
}

func (sh *poolShard) lruRemove(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		sh.lruHead = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		sh.lruTail = fr.prev
	}
	fr.prev, fr.next, fr.inLRU = nil, nil, false
}

// newFrameLocked returns a fresh frame, evicting the shard's LRU unpinned
// page if the shard is at capacity. An unpinned frame's latch is free by
// the pin-before-latch invariant, so the write-back below never blocks
// under the shard mutex.
func (sh *poolShard) newFrameLocked(b *BufferPool) (*frame, error) {
	if len(sh.frames) < sh.capacity {
		return &frame{}, nil
	}
	victim := sh.lruHead
	if victim == nil {
		return nil, ErrPoolFull
	}
	if victim.dirty {
		if err := b.writeBack(victim); err != nil {
			return nil, err
		}
	}
	sh.lruRemove(victim)
	delete(sh.frames, victim.page.ID)
	victim.pins = 0
	victim.dirty = false
	return victim, nil
}

// writeBack flushes one dirty frame, honouring the WAL rule. The caller
// must hold either the frame's shard mutex (eviction) or the frame's latch
// plus a pin (FlushAll) — both exclude any concurrent content writer.
func (b *BufferPool) writeBack(fr *frame) error {
	if b.flushLog != nil {
		if err := b.flushLog(fr.page.LSN()); err != nil {
			return err
		}
	}
	if err := b.disk.WritePage(&fr.page); err != nil {
		return err
	}
	fr.dirty = false
	fr.cleanLSN = fr.page.LSN()
	b.writes.Add(1)
	return nil
}

// FlushAll writes every dirty page back to disk (used by checkpointing and
// clean shutdown). Pinned pages are flushed too; they stay resident. Each
// frame is pinned and latched for its write so no shard mutex is held
// across I/O or latch waits.
func (b *BufferPool) FlushAll() error {
	for _, sh := range b.shards {
		sh.mu.Lock()
		ids := make([]PageID, 0, len(sh.frames))
		for id := range sh.frames {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
		for _, id := range ids {
			if err := b.flushOne(sh, id); err != nil {
				return err
			}
		}
	}
	return b.disk.Sync()
}

// flushOne pins, latches, and writes back one frame if it is still
// resident and dirty.
func (b *BufferPool) flushOne(sh *poolShard, id PageID) error {
	sh.mu.Lock()
	fr, ok := sh.frames[id]
	if !ok || fr.loading || !fr.dirty {
		sh.mu.Unlock()
		return nil
	}
	sh.pinLocked(fr)
	sh.mu.Unlock()

	fr.latch.Lock()
	var err error
	if fr.dirty { // may have been written back while we waited
		err = b.writeBack(fr)
	}
	fr.latch.Unlock()

	sh.mu.Lock()
	sh.unpinLocked(fr)
	sh.mu.Unlock()
	return err
}

// DirtyPages collects the dirty-page table for a fuzzy checkpoint: every
// currently-dirty resident page mapped to its recovery LSN (the frame's
// cleanLSN). Each frame is pinned and latched for its reading, like
// flushOne, so the walk synchronizes with content writers without holding
// any shard mutex across a latch wait. The collection is fuzzy by design —
// pages dirtied after their frame is visited are covered by the
// checkpoint-record LSN bound, not the table.
func (b *BufferPool) DirtyPages() map[PageID]uint64 {
	out := make(map[PageID]uint64)
	for _, sh := range b.shards {
		sh.mu.Lock()
		ids := make([]PageID, 0, len(sh.frames))
		for id, fr := range sh.frames {
			if fr.dirty && !fr.loading {
				ids = append(ids, id)
			}
		}
		sh.mu.Unlock()
		for _, id := range ids {
			sh.mu.Lock()
			fr, ok := sh.frames[id]
			if !ok || fr.loading {
				sh.mu.Unlock()
				continue
			}
			sh.pinLocked(fr)
			sh.mu.Unlock()

			fr.latch.Lock()
			if fr.dirty {
				out[id] = fr.cleanLSN
			}
			fr.latch.Unlock()

			sh.mu.Lock()
			sh.unpinLocked(fr)
			sh.mu.Unlock()
		}
	}
	return out
}

// Resident reports how many pages are currently cached (for tests).
func (b *BufferPool) Resident() int {
	n := 0
	for _, sh := range b.shards {
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}
