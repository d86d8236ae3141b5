package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/internal/seglog"
)

// RecType identifies the kind of a log record.
type RecType uint8

// Log record types.
const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecInsert
	RecDelete
	RecUpdate
	RecAlloc
	RecCheckpoint
	// RecCommitTS records the commit timestamp a top-level transaction was
	// assigned after its commit record became durable. It is a recovery
	// hint only: replay restores the commit-timestamp clock to the maximum
	// stamp seen so timestamps never repeat across restarts. Visibility
	// after a crash does not depend on it — recovery leaves every surviving
	// record frozen (no snapshot outlives a crash). Followers, however,
	// apply it live: it is what publishes a replicated commit to snapshot
	// readers on the replica.
	RecCommitTS
	// RecIdxCreate / RecIdxDrop are logical DDL records for secondary
	// indexes (internal/query). They carry the encoded index definition in
	// After and touch no page: redo is a no-op (the durable index catalog
	// record replays physically like any other record), and their undo is a
	// same-type CLR with no physical effect. They exist so index DDL rides
	// a transaction's op list like any other operation — aborts compensate
	// it, followers buffer it with the txn and surface it to the apply hook
	// at commit, keeping replica index definitions in lock-step.
	RecIdxCreate
	RecIdxDrop
)

// String names the record type for traces.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecUpdate:
		return "UPDATE"
	case RecAlloc:
		return "ALLOC"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecCommitTS:
		return "COMMIT-TS"
	case RecIdxCreate:
		return "IDX-CREATE"
	case RecIdxDrop:
		return "IDX-DROP"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// LogRecord is one entry in the write-ahead log. Before/After carry undo
// and redo images for record-level operations. CLR marks a compensation
// record written while undoing: it is redone like a forward operation and
// never undone itself, which keeps recovery correct when slots freed by an
// aborted transaction are reused before a crash.
type LogRecord struct {
	LSN    uint64 // global byte offset of the record in the log
	Type   RecType
	Txn    uint64
	Parent uint64 // begin records of subtransactions: the parent txn
	TS     uint64 // commit-timestamp records: the stamp assigned at commit
	CLR    bool
	RID    RID
	Before []byte
	After  []byte
	Active []uint64 // checkpoint only: transactions active at checkpoint
}

// The log's failure modes are seglog's; the storage names stay so callers
// (repl, faulttest, the facade) keep matching on them.
var (
	// ErrLogCorrupted marks a log entry that failed its checksum; recovery
	// treats it (and everything after) as a torn tail and stops.
	ErrLogCorrupted = seglog.ErrCorrupt
	// ErrWALSealed is returned by Append and Flush after any append, flush,
	// or fsync failure: the WAL fails fast and stays failed.
	ErrWALSealed = seglog.ErrSealed
	// ErrWALTruncated is returned when a reader asks for an offset below the
	// earliest retained segment — a lagging follower must resync.
	ErrWALTruncated = seglog.ErrTruncated
)

// The WAL is a seglog (internal/seglog: segment files, record frame, torn
// tail, roll, archive) whose record payload is a LogRecord and whose
// offsets are the LSNs. What storage adds is the manifest (MANIFEST,
// written via temp-file + rename + directory fsync): the checkpoint master
// record, carrying the checkpoint's redo LSN and serialized image plus the
// sealed-segment CRCs.
const (
	walSegMagic = "SWALSEG3"
	walSegExt   = ".log"
	// DefaultWALSegBytes is the segment-roll threshold when the store does
	// not choose one.
	DefaultWALSegBytes = 4 << 20
	walManifestName    = "MANIFEST"
)

// WAL is the write-ahead log. Appends are buffered in memory; Flush forces
// the buffer to the active segment (and optionally the OS cache) so that
// every record up to a given LSN is durable before the corresponding data
// page is written (the WAL rule). LSNs are the log's byte offsets: End is
// the LSN the next record will receive, Flushed the durability watermark
// (replication ships only below it, so shipped bytes are always intact
// frames) and Start the earliest LSN still retained, archive included.
type WAL struct {
	*seglog.Log
	dir string

	manMu     sync.Mutex // guards the checkpoint fields and manifest writes
	ckptLSN   uint64
	ckptImage []byte
}

// OpenWAL opens (creating if necessary) the segmented log in directory
// dir. When sync is true every Flush also fsyncs, giving real durability;
// tests typically pass false. segBytes is the segment-roll threshold
// (payload bytes per segment before the next flush rolls; 0 = default).
func OpenWAL(dir string, sync bool, segBytes int64) (*WAL, error) {
	if segBytes <= 0 {
		segBytes = DefaultWALSegBytes
	}
	w := &WAL{dir: dir}
	crcs, err := w.loadManifest()
	if err != nil {
		return nil, err
	}
	w.Log, err = seglog.Open(seglog.Config{
		Dir: dir, Magic: walSegMagic, Ext: walSegExt, SegBytes: segBytes, Sync: sync,
		Faults:   seglog.Faults{Append: faults.WALAppend, Flush: faults.WALFlush, Fsync: faults.WALFsync},
		CRCs:     crcs,
		OnChange: w.writeManifest,
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Append adds rec to the log and returns its LSN. The record is buffered;
// call Flush to make it durable. The frame is marshalled before the log's
// mutex is taken, so concurrent appenders only serialize on the buffer
// write itself.
func (w *WAL) Append(rec *LogRecord) (uint64, error) {
	lsn, err := w.Log.Append(marshalRecord(rec), 1)
	if err != nil {
		return 0, err
	}
	rec.LSN = lsn
	return lsn, nil
}

// IngestRaw appends nrecs pre-framed, pre-validated record bytes at base,
// which must equal the current log end. Replication followers use it to
// make shipped leader bytes their own log — the segments a follower cuts
// are its own (rolls happen at its flush boundaries), but the LSNs and
// frame bytes are identical to the leader's.
func (w *WAL) IngestRaw(base uint64, data []byte, nrecs int) error {
	return w.Log.AppendAt(base, data, nrecs)
}

// Scan replays the log from the given LSN, calling fn for every intact
// record in order.
func (w *WAL) Scan(from uint64, fn func(*LogRecord) error) error {
	return w.Log.Scan(from, func(lsn uint64, payload []byte) error {
		rec, err := unmarshalRecord(payload, lsn)
		if err != nil {
			return err
		}
		return fn(rec)
	})
}

// DecodeFrames parses a contiguous run of record frames starting at global
// offset base, validating every checksum. Followers use it to validate a
// shipped batch before ingesting it; any damage rejects the whole batch.
func DecodeFrames(base uint64, data []byte) ([]*LogRecord, error) {
	var recs []*LogRecord
	for off := 0; off < len(data); {
		payload, n, err := seglog.NextFrame(data[off:])
		if err == nil && n == 0 {
			err = ErrLogCorrupted // partial trailing frame
		}
		if err != nil {
			return nil, err
		}
		rec, err := unmarshalRecord(payload, base+uint64(off))
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, nil
}

// LogCursor reads raw, record-aligned byte batches from the flushed log —
// the leader side of WAL shipping.
type LogCursor = seglog.Cursor

// ---------------------------------------------------------------------------
// Manifest, checkpoint record, archive
// ---------------------------------------------------------------------------

// SetCheckpoint persists the checkpoint's redo LSN and serialized image in
// the manifest (the ARIES master record). Recovery reads them back via
// CheckpointInfo and starts its scan at the redo LSN.
func (w *WAL) SetCheckpoint(lsn uint64, image []byte) error {
	w.manMu.Lock()
	w.ckptLSN = lsn
	w.ckptImage = append([]byte(nil), image...)
	w.manMu.Unlock()
	return w.writeManifest()
}

// CheckpointInfo returns the manifest's checkpoint redo LSN and image
// (zero and nil when no checkpoint has been taken).
func (w *WAL) CheckpointInfo() (uint64, []byte) {
	w.manMu.Lock()
	defer w.manMu.Unlock()
	return w.ckptLSN, append([]byte(nil), w.ckptImage...)
}

// Manifest text format (one file per WAL directory, temp+rename updated):
//
//	sentinel-wal v1
//	checkpoint <redoLSN> <hex image | ->
//	segment <base hex16> <crc hex8>
//
// Unknown lines are ignored for forward compatibility. The segment lines
// carry only CRCs; the inventory itself is the directory listing.
func (w *WAL) writeManifest() error {
	w.manMu.Lock()
	defer w.manMu.Unlock()
	var sb strings.Builder
	sb.WriteString("sentinel-wal v1\n")
	img := "-"
	if len(w.ckptImage) > 0 {
		img = fmt.Sprintf("%x", w.ckptImage)
	}
	fmt.Fprintf(&sb, "checkpoint %d %s\n", w.ckptLSN, img)
	archived, sealed := w.Segments()
	for _, s := range append(archived, sealed...) {
		if s.HasCRC {
			fmt.Fprintf(&sb, "segment %016x %08x\n", s.Base, s.CRC)
		}
	}
	if err := seglog.WriteFileAtomic(filepath.Join(w.dir, walManifestName), []byte(sb.String())); err != nil {
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	return nil
}

// loadManifest reads the manifest at open (missing file = fresh log) and
// returns the sealed-segment CRCs it records.
func (w *WAL) loadManifest() (crcs map[uint64]uint32, err error) {
	raw, err := os.ReadFile(filepath.Join(w.dir, walManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read manifest: %w", err)
	}
	crcs = map[uint64]uint32{}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "checkpoint":
			if len(fields) != 3 {
				continue
			}
			lsn, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				continue
			}
			w.ckptLSN = lsn
			if fields[2] != "-" {
				img := make([]byte, len(fields[2])/2)
				if _, err := fmt.Sscanf(fields[2], "%x", &img); err == nil {
					w.ckptImage = img
				}
			}
		case "segment":
			if len(fields) != 3 {
				continue
			}
			base, err1 := strconv.ParseUint(fields[1], 16, 64)
			crc, err2 := strconv.ParseUint(fields[2], 16, 32)
			if err1 == nil && err2 == nil {
				crcs[base] = uint32(crc)
			}
		}
	}
	return crcs, nil
}

// On-disk record framing (format v3 — the generation is recorded in the
// data directory's marker file, see format.go; segments carry an 8-byte
// magic header and LSNs remain global log offsets):
//
//	seglog frame (u32 payloadLen | u32 crc32(payload)) | payload
//
// payload:
//
//	u8 type | u8 clr | u64 txn | u64 parent | u64 ts | u32 page | u16 slot |
//	u32 len(before) | before | u32 len(after) | after |
//	u32 len(active) | active u64s
//
// marshalRecord builds the full frame (header + payload) in memory; the
// LSN is an offset assigned at append time and is not part of the frame,
// so marshalling can happen outside the WAL mutex.
func marshalRecord(rec *LogRecord) []byte {
	payload := make([]byte, seglog.FrameHeaderLen, seglog.FrameHeaderLen+32+len(rec.Before)+len(rec.After)+8*len(rec.Active))
	payload = append(payload, byte(rec.Type))
	if rec.CLR {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	payload = binary.LittleEndian.AppendUint64(payload, rec.Txn)
	payload = binary.LittleEndian.AppendUint64(payload, rec.Parent)
	payload = binary.LittleEndian.AppendUint64(payload, rec.TS)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(rec.RID.Page))
	payload = binary.LittleEndian.AppendUint16(payload, rec.RID.Slot)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.Before)))
	payload = append(payload, rec.Before...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.After)))
	payload = append(payload, rec.After...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.Active)))
	for _, t := range rec.Active {
		payload = binary.LittleEndian.AppendUint64(payload, t)
	}

	seglog.EndFrame(payload, 0)
	return payload
}

// unmarshalRecord decodes one frame payload; lsn is the frame's offset.
func unmarshalRecord(p []byte, lsn uint64) (*LogRecord, error) {
	const fixed = 1 + 1 + 8 + 8 + 8 + 4 + 2 // type through slot
	if len(p) < fixed {
		return nil, ErrLogCorrupted
	}
	le := binary.LittleEndian
	rec := &LogRecord{
		LSN: lsn, Type: RecType(p[0]), CLR: p[1] == 1,
		Txn: le.Uint64(p[2:]), Parent: le.Uint64(p[10:]), TS: le.Uint64(p[18:]),
		RID: RID{Page: PageID(le.Uint32(p[26:])), Slot: le.Uint16(p[30:])},
	}
	p = p[fixed:]
	// count reads a u32 element count whose elements (size bytes each) must
	// still fit in the payload.
	count := func(size int) (int, bool) {
		if len(p) < 4 || uint64(le.Uint32(p))*uint64(size) > uint64(len(p)-4) {
			return 0, false
		}
		n := int(le.Uint32(p))
		p = p[4:]
		return n, true
	}
	for _, blob := range []*[]byte{&rec.Before, &rec.After} {
		n, ok := count(1)
		if !ok {
			return nil, ErrLogCorrupted
		}
		*blob = append(make([]byte, 0, n), p[:n]...)
		p = p[n:]
	}
	n, ok := count(8)
	if !ok {
		return nil, ErrLogCorrupted
	}
	for i := 0; i < n; i++ {
		rec.Active = append(rec.Active, le.Uint64(p[8*i:]))
	}
	return rec, nil
}
