package ged

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/seglog"
)

// EventLog is the GED's durable contribution log: an append-only record of
// every occurrence the server accepted, addressed by a dense uint64 offset
// (0, 1, 2, …). It is a thin client of internal/seglog — segments, the
// record frame, buffered appends, torn-tail truncation on open, roll,
// fsync and seal-on-error all live there — adding only the record payload
//
//	u64 offset (little endian) | occurrence (internal/event codec)
//
// and the map from those record offsets to seglog's byte offsets: the
// first record offset of every segment, rebuilt at open from each
// segment's first record.
//
// Readers follow the log through LogReader cursors: sequential decode
// with segment hand-off, blocking on the log's condition variable at the
// tail. That pull model is what makes subscribe-from-offset replay
// naturally backpressured — a slow subscriber reads the log at its own
// pace instead of growing a server-side queue.
type EventLog struct {
	log   *seglog.Log
	fsync bool

	mu      sync.Mutex
	cond    *sync.Cond
	enc     []byte     // reused frame buffer for one Append batch
	index   []segStart // non-empty segments, ascending
	end     uint64     // next offset to assign; records < end are readable
	durable uint64     // offsets < durable are fsynced
	closed  bool
}

// segStart locates a segment in both address spaces.
type segStart struct {
	first uint64 // record offset of the segment's first record
	pos   uint64 // seglog byte offset of that record (the segment base)
}

const (
	// logMagic names the record layout above; GEDLOG01 (bare occurrence
	// payloads, segments named by record offset) is rejected at open.
	logMagic    = "GEDLOG02"
	logExt      = ".seg"
	defSegBytes = 8 << 20
	readBatch   = 64 << 10 // bytes a LogReader pulls from its cursor at a time
)

// errLogClosed reports reads or appends on a closed log.
var errLogClosed = errors.New("ged: event log closed")

// OpenEventLog opens (or creates) the log in dir. segBytes bounds
// segment file size before rolling (0 = 8 MiB default); fsync makes every
// append batch durable before it is acknowledged.
func OpenEventLog(dir string, segBytes int64, fsync bool) (*EventLog, error) {
	if segBytes <= 0 {
		segBytes = defSegBytes
	}
	log, err := seglog.Open(seglog.Config{
		Dir: dir, Magic: logMagic, Ext: logExt, SegBytes: segBytes, Sync: fsync,
		Faults: seglog.Faults{Append: faults.GEDLogAppend, Flush: faults.GEDLogFlush, Fsync: faults.GEDLogFsync},
	})
	if err != nil {
		return nil, fmt.Errorf("ged: event log: %w", err)
	}
	l := &EventLog{log: log, fsync: fsync}
	l.cond = sync.NewCond(&l.mu)
	if err := l.buildIndex(); err != nil {
		log.Close()
		return nil, err
	}
	return l, nil
}

// buildIndex reads the first record of every segment and walks the last
// non-empty one to recover the end offset.
func (l *EventLog) buildIndex() error {
	_, sealed := l.log.Segments()
	bases := make([]uint64, 0, len(sealed)+1)
	for _, s := range sealed {
		bases = append(bases, s.Base)
	}
	bases = append(bases, l.log.ActiveBase())
	errStop := errors.New("stop")
	for _, base := range bases {
		err := l.log.Scan(base, func(_ uint64, payload []byte) error {
			first, _, err := splitRecord(payload)
			if err != nil {
				return err
			}
			l.index = append(l.index, segStart{first: first, pos: base})
			return errStop
		})
		if err != nil && err != errStop {
			return fmt.Errorf("ged: event log index: %w", err)
		}
	}
	if len(l.index) == 0 {
		return nil
	}
	last := l.index[len(l.index)-1]
	l.end = last.first
	err := l.log.Scan(last.pos, func(_ uint64, payload []byte) error {
		off, _, err := splitRecord(payload)
		if err == nil && off != l.end {
			err = fmt.Errorf("record offset %d where %d was expected", off, l.end)
		}
		l.end++
		return err
	})
	if err != nil {
		return fmt.Errorf("ged: event log index: %w", err)
	}
	l.durable = l.end
	return nil
}

// splitRecord separates a record payload into its offset and occurrence.
func splitRecord(payload []byte) (offset uint64, occ []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("ged: log record of %d bytes has no offset", len(payload))
	}
	return binary.LittleEndian.Uint64(payload), payload[8:], nil
}

// Append encodes and appends the batch, returning the offset of its
// first record. The batch becomes readable (and tail followers wake)
// before Append returns; with fsync enabled it is also durable. After a
// write error the log is sealed: every later Append fails with
// seglog.ErrSealed rather than writing behind a possibly torn record.
func (l *EventLog) Append(occs []event.Occurrence) (first uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errLogClosed
	}
	if len(occs) == 0 {
		return l.end, nil
	}
	first = l.end
	b := l.enc[:0]
	for i := range occs {
		start := len(b)
		b = binary.LittleEndian.AppendUint64(seglog.BeginFrame(b), first+uint64(i))
		if b, err = event.AppendOccurrence(b, &occs[i]); err != nil {
			return 0, err
		}
		seglog.EndFrame(b, start)
	}
	l.enc = b
	if _, err := l.log.Append(b, len(occs)); err != nil {
		return 0, fmt.Errorf("ged: event log append: %w", err)
	}
	if err := l.log.Flush(^uint64(0)); err != nil {
		return 0, fmt.Errorf("ged: event log append: %w", err)
	}
	// A batch is flushed whole, so it never straddles a roll: when the
	// active segment has no index entry yet, this batch opened it.
	active := l.log.ActiveBase()
	if n := len(l.index); n == 0 || l.index[n-1].pos != active {
		l.index = append(l.index, segStart{first: first, pos: active})
	}
	l.end += uint64(len(occs))
	if l.fsync {
		l.durable = l.end
	}
	l.cond.Broadcast()
	return first, nil
}

// End returns the next offset to be assigned (records < End are readable).
func (l *EventLog) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Durable returns the fsynced watermark (== End when fsync is enabled
// and no append is in flight; trails End otherwise).
func (l *EventLog) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Sync forces the log to disk and advances the durable watermark — the
// explicit boundary for logs running without per-append fsync.
func (l *EventLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if err := l.log.Sync(); err != nil {
		return err
	}
	l.durable = l.end
	return nil
}

// WaitFor blocks until offset is readable (end > offset) or the log
// closes; it reports whether the offset became readable.
func (l *EventLog) WaitFor(offset uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.end <= offset && !l.closed {
		l.cond.Wait()
	}
	return l.end > offset
}

// Close syncs and closes the log and wakes every waiting reader.
func (l *EventLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	serr := l.log.Sync()
	if serr == nil {
		l.durable = l.end
	}
	if err := l.log.Close(); serr == nil {
		serr = err
	}
	return serr
}

// segmentOf returns the start of the segment holding offset.
func (l *EventLog) segmentOf(offset uint64) (segStart, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.index), func(i int) bool { return l.index[i].first > offset })
	if i == 0 || offset >= l.end {
		return segStart{}, false
	}
	return l.index[i-1], true
}

// LogReader is a sequential cursor over the log from a starting offset.
// It is owned by one goroutine (each stream subscription runs its own).
type LogReader struct {
	log   *EventLog
	next  uint64 // offset of the record Next returns
	cur   *seglog.Cursor
	batch []byte // frames read from cur and not yet returned
}

// ReaderAt opens a cursor positioned at offset. Offsets at or past the
// end are valid: Next will block (via WaitFor) until appends catch up.
func (l *EventLog) ReaderAt(offset uint64) *LogReader {
	return &LogReader{log: l, next: offset}
}

// Offset returns the offset the next Next call will deliver.
func (r *LogReader) Offset() uint64 { return r.next }

// Close releases the cursor's file handle.
func (r *LogReader) Close() {
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
}

// Next returns the occurrence at the cursor and its offset, blocking at
// the tail until an append arrives. It returns errLogClosed once the log
// closes and the cursor has drained everything readable. The first call
// starts at the base of the segment holding the offset and skips the
// records before it (sequential readers pay this once).
func (r *LogReader) Next() (*event.Occurrence, uint64, error) {
	if !r.log.WaitFor(r.next) {
		return nil, 0, errLogClosed
	}
	if r.cur == nil {
		seg, ok := r.log.segmentOf(r.next)
		if !ok {
			return nil, 0, fmt.Errorf("ged: event log has no record %d", r.next)
		}
		r.cur = r.log.log.NewCursor(seg.pos)
	}
	for {
		if len(r.batch) == 0 {
			_, data, n, err := r.cur.ReadBatch(readBatch)
			if err != nil {
				return nil, 0, err
			}
			if n == 0 {
				return nil, 0, fmt.Errorf("ged: event log ends before record %d", r.next)
			}
			r.batch = data
		}
		payload, n, err := seglog.NextFrame(r.batch)
		if err != nil || n == 0 {
			return nil, 0, fmt.Errorf("ged: event log record %d: %w", r.next, seglog.ErrCorrupt)
		}
		r.batch = r.batch[n:]
		off, body, err := splitRecord(payload)
		if err != nil {
			return nil, 0, err
		}
		if off < r.next {
			continue // still seeking within the first segment
		}
		if off != r.next {
			return nil, 0, fmt.Errorf("ged: event log record %d found where %d was expected", off, r.next)
		}
		p := event.NewReader(body)
		occ := p.Occurrence()
		if err := p.Err(); err != nil {
			return nil, 0, err
		}
		r.next++
		return occ, off, nil
	}
}
