// Package storage implements the Sentinel storage manager — the analog of
// the Exodus storage manager the paper layers Open OODB on. It provides
// slotted-page heap storage with a buffer pool, write-ahead logging and
// crash recovery, and supplies atomicity and durability for *top-level*
// transactions (nested subtransactions are handled by the transaction
// manager above, exactly as in the paper where rule subtransactions sit on
// top of Exodus top-level transactions).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed size of every page, on disk and in the pool.
const PageSize = 4096

// PageID identifies a page within the database file.
type PageID uint32

// FileID names the file a page belongs to: the Exodus file of records
// that cluster together. The store keeps each file's pages apart, so an
// insert into a file only ever lands on one of that file's pages and a
// scan of the file reads those pages only. What a file holds is the
// caller's choice; file 0 is the default, and the one recovery's orphan
// pages join.
type FileID uint32

// RID addresses a record: the page that holds it and its slot there.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID as page.slot.
func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// Errors reported by page and heap operations.
var (
	ErrNoSpace       = errors.New("storage: not enough free space in page")
	ErrBadSlot       = errors.New("storage: no such slot")
	ErrSlotDeleted   = errors.New("storage: slot is deleted")
	ErrRecordTooBig  = errors.New("storage: record exceeds page capacity")
	ErrSlotOccupied  = errors.New("storage: slot already occupied")
	ErrPageCorrupted = errors.New("storage: page corrupted")
)

// Slotted page layout (format v8; the generation is recorded in the data
// directory's marker file, see format.go — v1 pages had 4-byte slot
// entries without xmin stamps, v2–v7 pages no file id; all integers
// little-endian):
//
//	[0:8)   pageLSN  — LSN of the last log record applied to this page
//	[8:10)  slotCount
//	[10:12) freeUpper — offset where record space begins (records grow down)
//	[12:16) file — the FileID the page belongs to, set when it is formatted
//	[16:...) slot array: 12 bytes per slot = offset uint16, length uint16,
//	         xmin uint64 (creator transaction of the current record)
//	[freeUpper:PageSize) record bytes
//
// A slot with offset == tombstone marks a deleted record whose slot number
// may be reused. The xmin stamp is raw: it holds the transaction id that
// wrote the current record, not a commit timestamp — readers resolve it
// through the store's commit-timestamp table, and an id the table no
// longer knows is "frozen" (committed before every live snapshot). An
// xmin of zero is always frozen; Insert fills it with zero and the store
// stamps the real writer while still holding the page latch.
const (
	pageLSNOff    = 0
	slotCountOff  = 8
	freeUpperOff  = 10
	fileOff       = 12
	slotArrayOff  = 16
	slotEntrySize = 12
	tombstone     = 0xFFFF
)

// MaxRecordSize is the largest record a single page can hold.
const MaxRecordSize = PageSize - slotArrayOff - slotEntrySize

// Page is one fixed-size slotted page. Methods never retain the backing
// array beyond the call. Page is not safe for concurrent use; the buffer
// pool serializes access via pins and latches.
type Page struct {
	ID   PageID
	Data [PageSize]byte
}

// InitPage formats p as an empty slotted page of file.
func (p *Page) InitPage(file FileID) {
	clear(p.Data[:])
	p.setFreeUpper(PageSize)
	binary.LittleEndian.PutUint32(p.Data[fileOff:], uint32(file))
}

// File returns the file the page belongs to.
func (p *Page) File() FileID { return FileID(binary.LittleEndian.Uint32(p.Data[fileOff:])) }

// formatted reports whether InitPage ever ran on p: freeUpper starts at
// PageSize and never drops below the slot array, so only a page never
// formatted has it zero.
func (p *Page) formatted() bool { return p.freeUpper() != 0 }

// LSN returns the page LSN (the last log record applied to this page).
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.Data[pageLSNOff:]) }

// SetLSN records the LSN of the log record just applied.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.Data[pageLSNOff:], lsn) }

func (p *Page) slotCount() uint16     { return binary.LittleEndian.Uint16(p.Data[slotCountOff:]) }
func (p *Page) setSlotCount(n uint16) { binary.LittleEndian.PutUint16(p.Data[slotCountOff:], n) }
func (p *Page) freeUpper() uint16     { return binary.LittleEndian.Uint16(p.Data[freeUpperOff:]) }
func (p *Page) setFreeUpper(off uint16) {
	binary.LittleEndian.PutUint16(p.Data[freeUpperOff:], off)
}

func (p *Page) slot(i uint16) (off, length uint16) {
	base := slotArrayOff + int(i)*slotEntrySize
	return binary.LittleEndian.Uint16(p.Data[base:]), binary.LittleEndian.Uint16(p.Data[base+2:])
}

// setSlot writes the offset and length of slot i, leaving the xmin stamp
// untouched — relocation and compaction move record bytes without changing
// who created the record.
func (p *Page) setSlot(i, off, length uint16) {
	base := slotArrayOff + int(i)*slotEntrySize
	binary.LittleEndian.PutUint16(p.Data[base:], off)
	binary.LittleEndian.PutUint16(p.Data[base+2:], length)
}

// Xmin returns the creator-transaction stamp of slot i (zero = frozen,
// i.e. visible to every snapshot).
func (p *Page) Xmin(i uint16) uint64 {
	base := slotArrayOff + int(i)*slotEntrySize
	return binary.LittleEndian.Uint64(p.Data[base+4:])
}

// SetXmin stamps slot i with its creator transaction.
func (p *Page) SetXmin(i uint16, xmin uint64) {
	base := slotArrayOff + int(i)*slotEntrySize
	binary.LittleEndian.PutUint64(p.Data[base+4:], xmin)
}

// freeSpace returns the bytes available for a new record, accounting for a
// possibly-needed new slot entry.
func (p *Page) freeSpace(needNewSlot bool) int {
	lower := slotArrayOff + int(p.slotCount())*slotEntrySize
	if needNewSlot {
		lower += slotEntrySize
	}
	return int(p.freeUpper()) - lower
}

// NumSlots returns the size of the slot array (live and tombstoned slots).
func (p *Page) NumSlots() uint16 { return p.slotCount() }

// Live reports whether slot i holds a record.
func (p *Page) Live(i uint16) bool {
	if i >= p.slotCount() {
		return false
	}
	off, _ := p.slot(i)
	return off != tombstone
}

// Insert places rec in the page and returns its slot, reusing a tombstoned
// slot when one exists. It returns ErrNoSpace when the page cannot hold the
// record even after compaction.
func (p *Page) Insert(rec []byte) (uint16, error) {
	return p.InsertSkipping(rec, nil)
}

// InsertSkipping is Insert with a slot filter: tombstoned slots for which
// skip returns true are not reused. The store passes its undo-reservation
// predicate so a slot freed by an uncommitted delete keeps its RID free
// for that transaction's rollback.
func (p *Page) InsertSkipping(rec []byte, skip func(uint16) bool) (uint16, error) {
	if len(rec) > MaxRecordSize {
		return 0, ErrRecordTooBig
	}
	// Prefer reusing a dead slot: no slot-array growth needed.
	reuse, haveReuse := uint16(0), false
	for i := uint16(0); i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off == tombstone {
			if skip != nil && skip(i) {
				continue
			}
			reuse, haveReuse = i, true
			break
		}
	}
	if p.freeSpace(!haveReuse) < len(rec) {
		p.compact()
		if p.freeSpace(!haveReuse) < len(rec) {
			return 0, ErrNoSpace
		}
	}
	slot := reuse
	if !haveReuse {
		slot = p.slotCount()
		p.setSlotCount(slot + 1)
	}
	p.place(slot, rec)
	p.SetXmin(slot, 0)
	return slot, nil
}

// InsertAt places rec in the specific slot, growing the slot array as
// needed. It is used by recovery redo, which must reproduce exact RIDs.
func (p *Page) InsertAt(slot uint16, rec []byte) error {
	if len(rec) > MaxRecordSize {
		return ErrRecordTooBig
	}
	if slot < p.slotCount() && p.Live(slot) {
		return ErrSlotOccupied
	}
	grow := uint16(0)
	if slot >= p.slotCount() {
		grow = slot - p.slotCount() + 1
	}
	lower := slotArrayOff + (int(p.slotCount())+int(grow))*slotEntrySize
	if int(p.freeUpper())-lower < len(rec) {
		p.compact()
		if int(p.freeUpper())-lower < len(rec) {
			return ErrNoSpace
		}
	}
	if grow > 0 {
		// New slots between old count and target are tombstones.
		old := p.slotCount()
		p.setSlotCount(old + grow)
		for i := old; i < old+grow; i++ {
			p.setSlot(i, tombstone, 0)
			p.SetXmin(i, 0)
		}
	}
	p.place(slot, rec)
	p.SetXmin(slot, 0)
	return nil
}

// place writes rec into free space and points slot at it. Space must have
// been checked by the caller.
func (p *Page) place(slot uint16, rec []byte) {
	off := p.freeUpper() - uint16(len(rec))
	copy(p.Data[off:], rec)
	p.setFreeUpper(off)
	p.setSlot(slot, off, uint16(len(rec)))
}

// Read returns the record in slot i. The returned slice aliases the page;
// callers that retain it must copy.
func (p *Page) Read(i uint16) ([]byte, error) {
	if i >= p.slotCount() {
		return nil, ErrBadSlot
	}
	off, length := p.slot(i)
	if off == tombstone {
		return nil, ErrSlotDeleted
	}
	if int(off)+int(length) > PageSize {
		return nil, ErrPageCorrupted
	}
	return p.Data[off : int(off)+int(length)], nil
}

// Delete tombstones slot i. Record space is reclaimed lazily by compaction.
func (p *Page) Delete(i uint16) error {
	if i >= p.slotCount() {
		return ErrBadSlot
	}
	if off, _ := p.slot(i); off == tombstone {
		return ErrSlotDeleted
	}
	p.setSlot(i, tombstone, 0)
	return nil
}

// Update replaces the record in slot i, in place when the new record fits
// in the old space and otherwise by relocation within the page. It returns
// ErrNoSpace when the page cannot hold the new record even after
// compaction (the heap layer then moves the record to another page).
func (p *Page) Update(i uint16, rec []byte) error {
	if i >= p.slotCount() {
		return ErrBadSlot
	}
	off, length := p.slot(i)
	if off == tombstone {
		return ErrSlotDeleted
	}
	if len(rec) <= int(length) {
		copy(p.Data[off:], rec)
		p.setSlot(i, off, uint16(len(rec)))
		return nil
	}
	// Relocate: tombstone first so compaction can reclaim the old space.
	p.setSlot(i, tombstone, 0)
	if p.freeSpace(false) < len(rec) {
		p.compact()
	}
	if p.freeSpace(false) < len(rec) || len(rec) > MaxRecordSize {
		// Restore the old record so a failed update is a no-op.
		p.setSlot(i, off, length)
		return ErrNoSpace
	}
	p.place(i, rec)
	return nil
}

// compact rewrites all live records contiguously at the top of the page,
// reclaiming space freed by deletes and relocations. It re-places each
// record from one copy of the page, on the stack: it allocates nothing.
func (p *Page) compact() {
	old := p.Data
	p.setFreeUpper(PageSize)
	for i := uint16(0); i < p.slotCount(); i++ {
		if off, length := p.slot(i); off != tombstone {
			p.place(i, old[off:int(off)+int(length)])
		}
	}
}

// FreeSpace reports the bytes available for one more record (assuming a new
// slot entry is required), after compaction if it were run.
func (p *Page) FreeSpace() int {
	used := 0
	for i := uint16(0); i < p.slotCount(); i++ {
		if off, length := p.slot(i); off != tombstone {
			used += int(length)
		}
	}
	lower := slotArrayOff + (int(p.slotCount())+1)*slotEntrySize
	free := PageSize - lower - used
	if free < 0 {
		return 0
	}
	return free
}
