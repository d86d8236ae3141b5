package object

import (
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/storage"
	"repro/internal/txn"
)

// ExtentScan reads a class extent — the class's objects, and its
// subclasses' when asked — from the classes' files, a page at a time
// (DESIGN.md §15). Each page is fetched once: under its latch, the records
// of the extent's classes that the transaction sees are copied into one
// reused buffer, and they are decoded from there after the latch is
// released, so no latch is held across Next. A record of another class
// that shares a file is skipped by its header.
//
// The scan takes no lock: a locked scan relies on the class locks its
// caller took (LockExtent), which every writer of the class conflicts
// with until it resolves; a snapshot scan needs none. Records come in
// page order, not OID order.
type ExtentScan struct {
	tx      *txn.Txn
	classes []*Class
	pages   []storage.PageID // every page of the classes' files
	read    int              // pages read so far
	visit   func(storage.RID, []byte) bool
	buf     []byte // the current page's records
	keys    bool   // collect OIDs and RIDs only, no record bytes
	recs    []scanRec
	pos     int // the current record is recs[pos-1]
	err     error
}

// scanRec is one record the scan copied: its identity and where its bytes
// are in the buffer.
type scanRec struct {
	oid      event.OID
	rid      storage.RID
	c        *Class
	off, end int
}

// ScanExtent starts a scan of class's extent (with its subclasses' when
// includeSubclasses is set) under tx. An unknown class, or a registry
// without a store, is reported by Err.
func (r *Registry) ScanExtent(tx *txn.Txn, class string, includeSubclasses bool) *ExtentScan {
	s := &ExtentScan{tx: tx}
	s.visit = s.collect
	if r.store == nil {
		s.err = ErrNotPersistent
		return s
	}
	r.mu.Lock()
	if c := r.classes[class]; c == nil {
		s.err = fmt.Errorf("%w: %q", ErrUnknownClass, class)
	} else if !includeSubclasses {
		s.classes = []*Class{c}
	} else {
		for name, c := range r.classes {
			if r.classMatchesLocked(name, class, true) {
				s.classes = append(s.classes, c)
			}
		}
	}
	r.mu.Unlock()
	files := make([]storage.FileID, len(s.classes))
	for i, c := range s.classes {
		files[i] = c.file
	}
	slices.Sort(files)
	for _, f := range slices.Compact(files) {
		s.pages = append(s.pages, r.store.FilePages(f)...)
	}
	return s
}

// collect runs under the page latch: it copies a record of the extent's
// classes into the buffer (only its identity in a keys-only scan).
func (s *ExtentScan) collect(rid storage.RID, data []byte) bool {
	oid, class, ok := readHeader(event.NewReader(data))
	if !ok {
		return true
	}
	for _, c := range s.classes {
		if string(class) == c.Name {
			off := len(s.buf)
			if !s.keys {
				s.buf = append(s.buf, data...)
			}
			s.recs = append(s.recs, scanRec{oid: event.OID(oid), rid: rid, c: c, off: off, end: len(s.buf)})
			break
		}
	}
	return true
}

// Next advances to the next record of the extent, reading pages until one
// holds a record or the files end.
func (s *ExtentScan) Next() bool {
	for s.pos >= len(s.recs) {
		if s.err != nil || s.read == len(s.pages) {
			return false
		}
		s.buf, s.recs, s.pos = s.buf[:0], s.recs[:0], 0
		s.read++
		if s.err = s.tx.ViewPage(s.pages[s.read-1], s.visit); s.err != nil {
			return false
		}
	}
	s.pos++
	return true
}

// OID returns the current record's object.
func (s *ExtentScan) OID() event.OID { return s.recs[s.pos-1].oid }

// RID returns where the current record is.
func (s *ExtentScan) RID() storage.RID { return s.recs[s.pos-1].rid }

// Class returns the current record's class.
func (s *ExtentScan) Class() *Class { return s.recs[s.pos-1].c }

// Attrs decodes the current record's attributes as LoadAttrs does (not in
// a keys-only scan): into row (cleared first; a fresh map when nil), with
// the same validation.
func (s *ExtentScan) Attrs(row map[string]any) (map[string]any, error) {
	clear(row)
	rec := &s.recs[s.pos-1]
	rd := event.NewReader(s.buf[rec.off:rec.end])
	readHeader(rd)
	attrs, ok := readAttrsInto(rd, &rec.c.names, row)
	if !ok {
		return nil, rec.malformed()
	}
	return attrs, nil
}

// Slots decodes the current record's attributes as LoadSlots does (not in
// a keys-only scan): slot i holds the attribute want[i]. A string slot
// views the scan's buffer, so it is valid until the next call to Next.
func (s *ExtentScan) Slots(want []string, slots []event.Slot) error {
	rec := &s.recs[s.pos-1]
	rd := event.NewReader(s.buf[rec.off:rec.end])
	readHeader(rd)
	if !readSlots(rd, want, slots) {
		return rec.malformed()
	}
	return nil
}

func (rec *scanRec) malformed() error {
	return fmt.Errorf("object: record of %v at %v is malformed", rec.oid, rec.rid)
}

// Pages returns how many pages the scan has read.
func (s *ExtentScan) Pages() int { return s.read }

// Err returns the error that ended the scan, if any.
func (s *ExtentScan) Err() error { return s.err }
