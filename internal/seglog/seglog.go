// Package seglog is the repository's one durable log: an append-only
// sequence of checksummed records over a directory of segment files. The
// storage WAL, the GED contribution log and (through the record frame
// alone) the detector's event log are clients; none of them rolls
// segments, frames records, truncates torn tails or fsyncs directories
// itself.
//
// Layout. A log lives in its own directory: one active segment receiving
// appends plus zero or more sealed segments, each named by the global byte
// offset of its first record (16 hex digits + the client's extension) and
// starting with the client's 8-byte magic. Offsets are global — a record
// at offset L lives in the segment with the greatest base ≤ L, at file
// offset SegHeaderLen + (L − base) — so segmentation is invisible to
// everything addressing the log by offset. Every record is one frame
// (frame.go).
//
// Segments roll only between flush batches, and flush batches end on
// record boundaries, so segments are record-aligned by construction (a
// segment may exceed the size target by at most one batch). A rolled
// segment is fdatasynced — even when the log runs in no-sync mode — before
// the next segment is created, so only the active segment can ever hold a
// torn tail. Each sealed segment's payload CRC is accumulated as its
// batches are written; archival verifies it before moving the file out of
// the recovery path. The segment inventory is reconstructed from the
// directory listing on open — the files themselves are the source of truth
// for what log exists.
package seglog

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// ErrCorrupt marks a record that failed its checksum. At the tail of the
// active segment that is a torn write and the log simply ends there;
// anywhere below the flushed watermark it is real damage.
var ErrCorrupt = errors.New("seglog: log record failed checksum")

// ErrSealed is returned by Append and Flush after any append, flush, or
// fsync failure. A failed write leaves the log in an unknowable state — the
// in-memory buffer may be partially drained, and after a failed fsync the
// kernel may have dropped dirty log pages while clearing the error (the
// "fsyncgate" class of bugs) — so the log fails fast and stays failed
// rather than silently retrying over possibly-lost bytes.
var ErrSealed = errors.New("seglog: log sealed after write failure")

// ErrTruncated is returned when a reader asks for an offset below the
// earliest retained segment — the log there has been archived away and
// pruned, so the reader (a lagging replication follower) must resync.
var ErrTruncated = errors.New("seglog: log truncated below requested offset")

const (
	// SegHeaderLen is the length of the magic that starts every segment.
	SegHeaderLen = 8
	archiveDir   = "archive"
)

// Faults names the caller's injection points, so arming one client's
// points never fires inside another client's log.
type Faults struct {
	// Append fires before records are buffered; a fired error seals the log.
	Append faults.Point
	// Flush fires before the buffer is written to the active segment. It is
	// torn-write capable: a Partial verdict writes only the first n bytes.
	Flush faults.Point
	// Fsync fires before the fsync (sync mode only); a fired error is
	// sticky-fatal.
	Fsync faults.Point
}

// Config is what a client passes to Open.
type Config struct {
	Dir      string
	Magic    string // SegHeaderLen bytes identifying the client's record format
	Ext      string // segment file extension, dot included
	SegBytes int64  // payload bytes per segment before the next flush rolls
	Sync     bool   // fsync on every Flush
	Faults   Faults
	// CRCs are the sealed-segment payload CRCs the client persisted, by
	// segment base; segments sealed before this open are verified against
	// them at archival.
	CRCs map[uint64]uint32
	// OnChange runs after the segment inventory changed — a roll, an
	// archive, a prune — so the client can persist Segments; its error
	// fails the operation.
	OnChange func() error
}

// Segment describes one sealed (or archived) segment: records with offsets
// in [Base, End).
type Segment struct {
	Base, End uint64
	CRC       uint32
	HasCRC    bool
}

// Log is a segmented log. Appends are buffered in memory; Flush forces the
// buffer to the active segment (and, in sync mode, to stable storage).
//
// Two locks split the appender and flusher paths so group commit can
// pipeline: mu guards the in-memory state (buffer, offsets, seal, segment
// inventory) and is held only for memcpy-scale work; flushMu serializes
// the file write, fsync, and segment roll and is held across the I/O. An
// append never waits on an fsync in progress — it lands in the buffer and
// is covered by the next force — which is what lets a group-commit flusher
// build real batches while a force is in flight.
type Log struct {
	cfg Config

	mu       sync.Mutex
	buf      []byte // appended records not yet handed to the OS
	spare    []byte // recycled flush buffer
	end      uint64 // offset where the next record will be written
	flushed  uint64 // all records below this offset are durable (per cfg.Sync)
	sealErr  error  // first write failure; non-nil seals the log (fail-fast)
	sealed   []Segment
	archived []Segment
	actBase  uint64 // base offset of the active segment

	flushMu    sync.Mutex // serializes file write + fsync + roll; never held under mu
	f          *os.File   // active segment
	actCRC     uint32     // running CRC of the active segment's flushed payload
	allocated  int64      // active-file bytes reserved ahead of the append point (flushMu)
	noPrealloc bool       // preallocation failed once; don't retry (flushMu)

	// Always-on activity counters, readable without the mutex.
	appends     atomic.Uint64 // records appended
	appendBytes atomic.Uint64 // bytes appended (framing included)
	flushes     atomic.Uint64 // Flush calls that did buffer work
	fsyncs      atomic.Uint64 // fsyncs issued
	rolls       atomic.Uint64 // segment rolls
}

// Stats returns the log's activity counters: records appended, bytes
// appended, buffer flushes performed, and fsyncs issued.
func (l *Log) Stats() (appends, appendBytes, flushes, fsyncs uint64) {
	return l.appends.Load(), l.appendBytes.Load(), l.flushes.Load(), l.fsyncs.Load()
}

// Rolls returns how many segment rolls the log has performed since open.
func (l *Log) Rolls() uint64 { return l.rolls.Load() }

func (l *Log) segPath(base uint64) string {
	return filepath.Join(l.cfg.Dir, SegName(base, l.cfg.Ext))
}

func (l *Log) archivePath(base uint64) string {
	return filepath.Join(l.cfg.Dir, archiveDir, SegName(base, l.cfg.Ext))
}

// SegName is the file name of the segment based at offset base.
func SegName(base uint64, ext string) string { return fmt.Sprintf("%016x%s", base, ext) }

// syncDir fsyncs a directory so a just-created (or renamed) entry in it
// survives a crash. A file's contents being durable is worthless if the
// directory entry pointing at it is not.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFileAtomic durably replaces path with data: temp file, fdatasync,
// rename, directory fsync. Clients use it for the small sidecar files that
// must never be seen half-written (the WAL's checkpoint manifest).
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// createSegment creates (exclusively) a new segment file, writes its
// header, fsyncs the file, and fsyncs the directory so the entry is
// durable before any record lands in it.
func (l *Log) createSegment(base uint64) (*os.File, error) {
	f, err := os.OpenFile(l.segPath(base), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("seglog: create log segment: %w", err)
	}
	if _, err := f.WriteAt([]byte(l.cfg.Magic), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("seglog: write segment header: %w", err)
	}
	if err := syncFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("seglog: sync new segment: %w", err)
	}
	if err := syncDir(l.cfg.Dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("seglog: sync log directory: %w", err)
	}
	return f, nil
}

// Open opens (creating if necessary) the segmented log in cfg.Dir. A torn
// tail on the active segment is truncated so new records append after the
// last good one; a segment that does not start with cfg.Magic is an error.
func Open(cfg Config) (*Log, error) {
	if len(cfg.Magic) != SegHeaderLen || cfg.SegBytes <= 0 {
		return nil, fmt.Errorf("seglog: bad config (magic %q, segment bytes %d)", cfg.Magic, cfg.SegBytes)
	}
	created := false
	if _, err := os.Stat(cfg.Dir); os.IsNotExist(err) {
		created = true
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: create log directory: %w", err)
	}
	if created {
		// The parent must know about its new entry before anything inside
		// it is trusted.
		if err := syncDir(filepath.Dir(cfg.Dir)); err != nil {
			return nil, fmt.Errorf("seglog: sync parent directory: %w", err)
		}
	}
	l := &Log{cfg: cfg}
	bases, err := l.listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		f, err := l.createSegment(0)
		if err != nil {
			return nil, err
		}
		l.f = f
		l.allocated = SegHeaderLen
		return l, nil
	}
	arBases, err := l.listSegments(filepath.Join(cfg.Dir, archiveDir))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	for _, base := range arBases {
		seg, err := l.statSegment(l.archivePath(base), base)
		if err != nil {
			return nil, err
		}
		l.archived = append(l.archived, seg)
	}
	// The highest-based segment is the active one and the only place a torn
	// tail can live. Its header is checked before the sealed inventory, so a
	// directory written in another format is reported as that.
	actBase := bases[len(bases)-1]
	f, err := os.OpenFile(l.segPath(actBase), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("seglog: open log segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("seglog: stat log: %w", err)
	}
	if st.Size() < SegHeaderLen {
		// A crash between creating the segment and syncing its header can
		// leave a short file; the segment is logically empty. Repair it.
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(cfg.Magic), 0)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("seglog: repair log segment header: %w", err)
		}
	} else {
		var magic [SegHeaderLen]byte
		if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != cfg.Magic {
			f.Close()
			return nil, fmt.Errorf("%w: segment %s has a bad header (want %q, found %q)",
				ErrCorrupt, SegName(actBase, cfg.Ext), cfg.Magic, magic[:])
		}
	}
	// All other segments are sealed: contiguous, synced at seal time,
	// trusted by size.
	for i, base := range bases[:len(bases)-1] {
		seg, err := l.statSegment(l.segPath(base), base)
		if err == nil && seg.End != bases[i+1] {
			err = fmt.Errorf("%w: segment %s ends at %d but next segment starts at %d",
				ErrCorrupt, SegName(base, cfg.Ext), seg.End, bases[i+1])
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		l.sealed = append(l.sealed, seg)
	}
	l.f = f
	l.actBase = actBase
	// Find the end of the log with the cursor every reader uses: count the
	// whole file as flushed, walk it, and the first frame that does not
	// parse (a zero-filled or half-written tail) is where the log ends.
	l.flushed = actBase + uint64(max(st.Size(), SegHeaderLen)-SegHeaderLen)
	c := l.NewCursor(actBase)
	defer c.Close()
	for {
		_, data, n, err := c.ReadBatch(1 << 16)
		if errors.Is(err, ErrCorrupt) || (err == nil && n == 0) {
			break
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		l.actCRC = crc32.Update(l.actCRC, crc32.IEEETable, data)
	}
	// Drop any torn tail so new records append after the last good one.
	l.allocated = SegHeaderLen + int64(c.pos-actBase)
	if err := f.Truncate(l.allocated); err != nil {
		f.Close()
		return nil, fmt.Errorf("seglog: truncate torn log tail: %w", err)
	}
	l.end, l.flushed = c.pos, c.pos
	return l, nil
}

// statSegment describes the sealed or archived segment file at path by its
// size, attaching the CRC the client persisted for it.
func (l *Log) statSegment(path string, base uint64) (Segment, error) {
	st, err := os.Stat(path)
	if err != nil {
		return Segment{}, fmt.Errorf("seglog: stat log segment: %w", err)
	}
	if st.Size() < SegHeaderLen {
		return Segment{}, fmt.Errorf("%w: sealed segment %s shorter than its header", ErrCorrupt, filepath.Base(path))
	}
	seg := Segment{Base: base, End: base + uint64(st.Size()-SegHeaderLen)}
	seg.CRC, seg.HasCRC = l.cfg.CRCs[base]
	return seg, nil
}

// listSegments returns the segment base offsets in dir, ascending.
func (l *Log) listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, l.cfg.Ext) || len(name) != 16+len(l.cfg.Ext) {
			continue
		}
		base, err := strconv.ParseUint(name[:16], 16, 64)
		if err != nil {
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// preallocChunk is how far ahead of the append point the log reserves file
// space. Within a reserved region an append changes neither the file size
// nor the extent tree, so the per-batch fdatasync commits data only — no
// journal transaction — which is a large fraction of the force cost on a
// journaling filesystem.
const preallocChunk = 1 << 22 // 4 MiB

// preallocate ensures the active file has reserved space through upTo
// (a file offset), growing in preallocChunk steps. Reservation is purely
// an optimization: recovery treats the zero-filled tail beyond the last
// intact record as torn (a zero length fails frame parsing), so a failure
// here just disables preallocation rather than failing the flush. Caller
// holds flushMu.
func (l *Log) preallocate(upTo int64) {
	if l.noPrealloc || upTo <= l.allocated {
		return
	}
	n := ((upTo-l.allocated)/preallocChunk + 1) * preallocChunk
	if err := allocateFile(l.f, l.allocated, n); err != nil {
		l.noPrealloc = true // e.g. filesystem without fallocate support
		return
	}
	l.allocated += n
}

// Append buffers nrecs whole frames (built with BeginFrame/EndFrame) and
// returns the offset of the first. Call Flush to make them durable. Frames
// are built before the mutex is taken, so concurrent appenders only
// serialize on the buffer write itself.
func (l *Log) Append(frames []byte, nrecs int) (uint64, error) {
	return l.appendAt(^uint64(0), frames, nrecs)
}

// AppendAt is Append for a caller replicating another log byte for byte:
// it refuses unless the log currently ends at offset at.
func (l *Log) AppendAt(at uint64, frames []byte, nrecs int) error {
	_, err := l.appendAt(at, frames, nrecs)
	return err
}

func (l *Log) appendAt(at uint64, frames []byte, nrecs int) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealErr != nil {
		return 0, fmt.Errorf("%w: %w", ErrSealed, l.sealErr)
	}
	if at != ^uint64(0) && at != l.end {
		return 0, fmt.Errorf("seglog: append at offset %d but log ends at %d", at, l.end)
	}
	if err := faults.Check(l.cfg.Faults.Append); err != nil {
		l.sealErr = err
		return 0, fmt.Errorf("seglog: append log record: %w", err)
	}
	off := l.end
	l.buf = append(l.buf, frames...)
	l.end += uint64(len(frames))
	l.appends.Add(uint64(nrecs))
	l.appendBytes.Add(uint64(len(frames)))
	return off, nil
}

// Flush forces every appended record with offset < upTo (use ^uint64(0)
// for "everything") out of the buffer, fsyncing when the log was opened in
// sync mode. The buffer is detached under mu and written under flushMu
// only, so concurrent appenders keep appending while the force — fsync
// included — is in flight. When the active segment has reached the size
// target the flush seals it and rolls to a new one first; batches never
// split across segments, so every segment ends on a record boundary.
func (l *Log) Flush(upTo uint64) error { return l.flush(upTo, l.cfg.Sync) }

// Sync is Flush(everything) followed by an fsync whatever the sync mode —
// the explicit durability boundary for logs running without per-flush
// fsync.
func (l *Log) Sync() error { return l.flush(^uint64(0), true) }

func (l *Log) flush(upTo uint64, fsync bool) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.sealErr != nil {
		err := l.sealErr
		l.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrSealed, err)
	}
	// Re-checked after taking flushMu: a force we queued behind may have
	// already covered us.
	if upTo != ^uint64(0) && upTo <= l.flushed {
		l.mu.Unlock()
		return nil
	}
	buf := l.buf
	l.buf = l.spare[:0]
	l.spare = nil
	target := l.end
	base := l.actBase
	durable := l.flushed
	l.mu.Unlock()

	if len(buf) > 0 && int64(durable-base) >= l.cfg.SegBytes {
		if rerr := l.roll(durable); rerr != nil {
			l.Seal(rerr)
			return fmt.Errorf("seglog: roll log segment: %w", rerr)
		}
		base = durable
	}
	at := SegHeaderLen + int64(durable-base)
	err := faults.CheckIO(l.cfg.Faults.Flush, func(n int) {
		if n > len(buf) {
			n = len(buf)
		}
		_, _ = l.f.WriteAt(buf[:n], at)
	})
	if err == nil && len(buf) > 0 {
		l.preallocate(SegHeaderLen + int64(target-base))
		_, err = l.f.WriteAt(buf, at)
	}
	if err != nil {
		// The file may hold a torn frame now; seal so no later record can
		// be appended after it. The detached buffer is dropped — its bytes
		// are exactly the tail recovery will treat as lost.
		l.Seal(err)
		return fmt.Errorf("seglog: flush log: %w", err)
	}
	if len(buf) > 0 {
		l.actCRC = crc32.Update(l.actCRC, crc32.IEEETable, buf)
	}
	l.flushes.Add(1)
	if fsync {
		err := faults.Check(l.cfg.Faults.Fsync)
		if err == nil {
			err = syncFile(l.f)
		}
		if err != nil {
			// Sticky-fatal: after a failed fsync the kernel may have
			// dropped the dirty pages and cleared the error, so a retry
			// would "succeed" without the data ever reaching disk.
			l.Seal(err)
			return fmt.Errorf("seglog: sync log: %w", err)
		}
		l.fsyncs.Add(1)
	}
	l.mu.Lock()
	// Advance the durability watermark only after the flush — and, in sync
	// mode, the fsync — actually succeeded. Advancing it earlier would let
	// a failed fsync leave callers believing their records are durable.
	l.flushed = target
	if l.spare == nil {
		l.spare = buf[:0] // recycle the drained buffer for the next force
	}
	l.mu.Unlock()
	return nil
}

// roll seals the active segment at end and starts a new one based there.
// Caller holds flushMu. The sealed file is truncated to its logical size,
// fdatasynced regardless of sync mode (only the active segment may ever be
// torn), and its accumulated CRC is recorded in the inventory.
func (l *Log) roll(end uint64) error {
	l.mu.Lock()
	base := l.actBase
	l.mu.Unlock()
	logical := SegHeaderLen + int64(end-base)
	if l.allocated > logical {
		if err := l.f.Truncate(logical); err != nil {
			return err
		}
	}
	if err := syncFile(l.f); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	sealed := Segment{Base: base, End: end, CRC: l.actCRC, HasCRC: true}
	f, err := l.createSegment(end)
	if err != nil {
		return err
	}
	l.f = f
	l.allocated = SegHeaderLen
	l.actCRC = 0
	l.mu.Lock()
	l.sealed = append(l.sealed, sealed)
	l.actBase = end
	l.mu.Unlock()
	l.rolls.Add(1)
	return l.changed()
}

func (l *Log) changed() error {
	if l.cfg.OnChange == nil {
		return nil
	}
	return l.cfg.OnChange()
}

// Durable reports whether every record below upTo is already flushed (and
// fsynced when the log is in sync mode). A sealed log reports its sealing
// error. A group committer uses this as its fast path: a waiter whose
// records were covered by a previous batch never queues at all.
func (l *Log) Durable(upTo uint64) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealErr != nil {
		return false, fmt.Errorf("%w: %w", ErrSealed, l.sealErr)
	}
	return upTo <= l.flushed, nil
}

// Seal records err as the log's sealing failure if it is not already
// sealed. A group-commit flusher uses it when an injected crash kills a
// flush mid-batch: the "process" died with the buffer state unknowable, so
// nothing may append or flush afterwards.
func (l *Log) Seal(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealErr == nil {
		l.sealErr = err
	}
}

// Sealed returns the error that sealed the log, or nil if it is healthy.
func (l *Log) Sealed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealErr
}

// End returns the offset the next record will receive.
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Flushed returns the durability watermark: every record below it has been
// handed to the OS (and fsynced in sync mode). Cursors read only flushed
// bytes — the seal-before-advance discipline in Flush means a torn frame
// can never sit below this watermark, so what they return is always intact
// frames.
func (l *Log) Flushed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// Start returns the earliest offset still retained (archive included).
func (l *Log) Start() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.archived) > 0 {
		return l.archived[0].Base
	}
	if len(l.sealed) > 0 {
		return l.sealed[0].Base
	}
	return l.actBase
}

// Segments returns the archived and sealed segment inventories.
func (l *Log) Segments() (archived, sealed []Segment) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Segment(nil), l.archived...), append([]Segment(nil), l.sealed...)
}

// ActiveBase returns the base offset of the segment receiving appends.
func (l *Log) ActiveBase() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.actBase
}

// Close flushes and closes the log file. The file is closed even when the
// final flush fails (or the log is sealed); the first error wins.
func (l *Log) Close() error {
	flushErr := l.Flush(^uint64(0))
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	logical := SegHeaderLen + int64(l.flushed-l.actBase)
	if flushErr == nil && l.allocated > logical {
		// Drop the preallocated tail so a cleanly closed log ends at its
		// last record. Best-effort: recovery treats a zero tail as torn.
		_ = l.f.Truncate(logical)
		l.allocated = logical
	}
	if err := l.f.Close(); err != nil && flushErr == nil {
		return err
	}
	return flushErr
}

// segmentFor locates the segment holding off. For the active segment, End
// is the current flushed watermark. ok is false when off is at or past the
// flushed end of the log.
func (l *Log) segmentFor(off uint64) (seg Segment, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off >= l.actBase {
		if off >= l.flushed {
			return Segment{}, false
		}
		return Segment{Base: l.actBase, End: l.flushed}, true
	}
	for _, s := range l.sealed {
		if off >= s.Base && off < s.End {
			return s, true
		}
	}
	for _, s := range l.archived {
		if off >= s.Base && off < s.End {
			return s, true
		}
	}
	return Segment{}, false
}

// openSegment opens the file for a segment, looking in the main directory
// first and the archive second (a concurrent Archive may move it).
func (l *Log) openSegment(base uint64) (*os.File, error) {
	f, err := os.Open(l.segPath(base))
	if os.IsNotExist(err) {
		f, err = os.Open(l.archivePath(base))
	}
	return f, err
}

// Scan replays the flushed log from offset from, calling fn with the
// offset and payload of every record in order. The payload is only valid
// during the call.
func (l *Log) Scan(from uint64, fn func(off uint64, payload []byte) error) error {
	if err := l.Flush(^uint64(0)); err != nil {
		return err
	}
	c := l.NewCursor(from)
	defer c.Close()
	for {
		off, data, n, err := c.ReadBatch(1 << 16)
		if err != nil || n == 0 {
			return err
		}
		for len(data) > 0 {
			size := FrameHeaderLen + int(frameLen(data)) // ReadBatch returns whole, verified frames
			if err := fn(off, data[FrameHeaderLen:size]); err != nil {
				return err
			}
			off += uint64(size)
			data = data[size:]
		}
	}
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

// Cursor reads raw, record-aligned byte batches from the flushed log and
// follows the tail as it grows. It follows segment hand-offs (archive
// included) and never reads past the flushed watermark, so every byte it
// returns is an intact frame. A cursor is owned by one goroutine.
type Cursor struct {
	l       *Log
	pos     uint64
	f       *os.File
	segBase uint64
	open    bool
	buf     []byte
}

// NewCursor returns a cursor positioned at offset from.
func (l *Log) NewCursor(from uint64) *Cursor {
	return &Cursor{l: l, pos: from}
}

// Close releases the cursor's file handle.
func (c *Cursor) Close() {
	if c.open {
		c.f.Close()
		c.open = false
	}
}

// ReadBatch returns up to maxBytes of whole record frames starting at the
// cursor position, advancing the cursor. data is valid until the next
// call. n is the number of complete records in data; n == 0 with a nil
// error means the cursor is caught up with the flushed log. A batch never
// spans segments. ErrTruncated means the log below the cursor has been
// pruned (the reader must resync).
func (c *Cursor) ReadBatch(maxBytes int) (base uint64, data []byte, n int, err error) {
	limit := c.l.Flushed()
	if c.pos >= limit {
		return c.pos, nil, 0, nil
	}
	if start := c.l.Start(); c.pos < start {
		return c.pos, nil, 0, fmt.Errorf("%w: cursor at %d, log starts at %d", ErrTruncated, c.pos, start)
	}
	seg, ok := c.l.segmentFor(c.pos)
	if !ok {
		return c.pos, nil, 0, fmt.Errorf("seglog: no segment covers offset %d", c.pos)
	}
	if !c.open || c.segBase != seg.Base {
		c.Close()
		f, err := c.l.openSegment(seg.Base)
		if os.IsNotExist(err) {
			// Archived (or pruned) between locate and open; retry once.
			if seg, ok = c.l.segmentFor(c.pos); ok {
				f, err = c.l.openSegment(seg.Base)
			}
		}
		if err != nil {
			return c.pos, nil, 0, fmt.Errorf("seglog: open log segment: %w", err)
		}
		c.f, c.segBase, c.open = f, seg.Base, true
	}
	readEnd := seg.End
	if limit < readEnd {
		readEnd = limit
	}
	avail := int64(readEnd - c.pos)
	want := int64(maxBytes)
	if want > avail {
		want = avail
	}
	at := SegHeaderLen + int64(c.pos-seg.Base)
	for {
		if err := c.read(at, want); err != nil {
			return c.pos, nil, 0, err
		}
		off, count, err := alignFrames(c.buf)
		if count > 0 {
			// Damage behind these frames is reported by the next call.
			base = c.pos
			c.pos += uint64(off)
			return base, c.buf[:off], count, nil
		}
		if err != nil {
			return c.pos, nil, 0, err
		}
		// A single record larger than maxBytes: read exactly that record.
		if want < FrameHeaderLen {
			return c.pos, nil, 0, ErrCorrupt
		}
		size := FrameHeaderLen + int64(frameLen(c.buf))
		if size <= want || size > avail {
			return c.pos, nil, 0, ErrCorrupt
		}
		want = size
	}
}

// read fills c.buf with n bytes of the open segment starting at file
// offset at.
func (c *Cursor) read(at, n int64) error {
	if int64(cap(c.buf)) < n {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	if _, err := c.f.ReadAt(c.buf, at); err != nil {
		return fmt.Errorf("seglog: read log segment: %w", err)
	}
	return nil
}

// alignFrames walks whole frames in buf, verifying each checksum, and
// returns the byte length of the complete-frame prefix plus the frame
// count. Everything a cursor reads is below the flushed watermark, so a
// checksum failure here is real damage (bit rot, out-of-band truncation),
// not a torn tail — it is an error, not a stop.
func alignFrames(buf []byte) (int, int, error) {
	off, count := 0, 0
	for {
		_, n, err := NextFrame(buf[off:])
		if err != nil {
			return off, count, err
		}
		if n == 0 {
			return off, count, nil
		}
		off += n
		count++
	}
}

// ---------------------------------------------------------------------------
// Archive
// ---------------------------------------------------------------------------

// Archive moves every sealed segment fully below upTo into the archive
// directory, verifying its recorded CRC first — a segment leaves the
// recovery path only after proving it is intact. Archived segments stay
// readable to cursors (lagging followers) until pruned.
func (l *Log) Archive(upTo uint64) (int, error) {
	l.mu.Lock()
	var move []Segment
	for _, s := range l.sealed {
		if s.End <= upTo {
			move = append(move, s)
		}
	}
	l.mu.Unlock()
	if len(move) == 0 {
		return 0, nil
	}
	adir := filepath.Join(l.cfg.Dir, archiveDir)
	if err := os.MkdirAll(adir, 0o755); err != nil {
		return 0, fmt.Errorf("seglog: create archive directory: %w", err)
	}
	moved := 0
	for _, s := range move {
		if s.HasCRC {
			if err := verifySegmentCRC(l.segPath(s.Base), s.CRC); err != nil {
				return moved, err
			}
		}
		if err := os.Rename(l.segPath(s.Base), l.archivePath(s.Base)); err != nil {
			return moved, fmt.Errorf("seglog: archive segment: %w", err)
		}
		l.mu.Lock()
		l.sealed = l.sealed[1:]
		l.archived = append(l.archived, s)
		l.mu.Unlock()
		moved++
	}
	if err := syncDir(adir); err != nil {
		return moved, err
	}
	if err := syncDir(l.cfg.Dir); err != nil {
		return moved, err
	}
	return moved, l.changed()
}

// Prune deletes archived segments fully below floor — the minimum offset
// any lagging reader still needs (pass ^uint64(0) when nothing lags).
func (l *Log) Prune(floor uint64) (int, error) {
	l.mu.Lock()
	var drop []Segment
	for _, s := range l.archived {
		if s.End <= floor {
			drop = append(drop, s)
		}
	}
	l.mu.Unlock()
	if len(drop) == 0 {
		return 0, nil
	}
	removed := 0
	for _, s := range drop {
		if err := os.Remove(l.archivePath(s.Base)); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("seglog: prune archived segment: %w", err)
		}
		l.mu.Lock()
		l.archived = l.archived[1:]
		l.mu.Unlock()
		removed++
	}
	if err := syncDir(filepath.Join(l.cfg.Dir, archiveDir)); err != nil {
		return removed, err
	}
	return removed, l.changed()
}

func verifySegmentCRC(path string, want uint32) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, io.NewSectionReader(f, SegHeaderLen, st.Size()-SegHeaderLen)); err != nil {
		return err
	}
	if h.Sum32() != want {
		return fmt.Errorf("%w: segment %s CRC mismatch", ErrCorrupt, filepath.Base(path))
	}
	return nil
}
