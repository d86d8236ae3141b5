package ged

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/seglog"
)

func mkOccs(start, n int) []event.Occurrence {
	occs := make([]event.Occurrence, n)
	for i := range occs {
		occs[i] = event.Occurrence{
			Name:   fmt.Sprintf("e%d", (start+i)%3),
			Kind:   event.KindExplicit,
			App:    "test",
			Params: event.NewParams("i", start+i),
		}
	}
	return occs
}

func TestEventLogAppendRead(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	first, err := l.Append(mkOccs(0, 10))
	if err != nil || first != 0 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	if first, err = l.Append(mkOccs(10, 5)); err != nil || first != 10 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	if l.End() != 15 {
		t.Fatalf("end=%d", l.End())
	}

	r := l.ReaderAt(0)
	defer r.Close()
	for i := 0; i < 15; i++ {
		occ, off, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i) {
			t.Fatalf("offset %d, want %d", off, i)
		}
		if v, _ := occ.Params.Get("i"); v != i {
			t.Fatalf("record %d carries i=%v", i, v)
		}
	}
}

func TestEventLogSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenEventLog(dir, 256, false) // tiny segments force rolls
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i += 10 {
		if _, err := l.Append(mkOccs(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}

	// Reopen: end recovered, reads cross segment boundaries, appends
	// continue at the next offset.
	l2, err := OpenEventLog(dir, 256, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != n {
		t.Fatalf("recovered end=%d want %d", l2.End(), n)
	}
	r := l2.ReaderAt(0)
	defer r.Close()
	for i := 0; i < n; i++ {
		occ, off, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if off != uint64(i) {
			t.Fatalf("offset %d want %d", off, i)
		}
		if v, _ := occ.Params.Get("i"); v != i {
			t.Fatalf("record %d carries i=%v", i, v)
		}
	}
	if first, err := l2.Append(mkOccs(n, 1)); err != nil || first != n {
		t.Fatalf("append after reopen: first=%d err=%v", first, err)
	}
}

// lastSegment returns the path of the highest-base segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[0]
	for _, s := range segs[1:] {
		if s > last {
			last = s
		}
	}
	return last
}

func TestEventLogTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(mkOccs(0, 20)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop some bytes off the last record.
	seg := lastSegment(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != 19 {
		t.Fatalf("end after torn tail=%d want 19", l2.End())
	}
	// The log stays usable: the next append takes the reclaimed offset.
	if first, err := l2.Append(mkOccs(100, 1)); err != nil || first != 19 {
		t.Fatalf("append after recovery: first=%d err=%v", first, err)
	}
	r := l2.ReaderAt(18)
	defer r.Close()
	if occ, off, err := r.Next(); err != nil || off != 18 {
		t.Fatalf("off=%d err=%v", off, err)
	} else if v, _ := occ.Params.Get("i"); v != 18 {
		t.Fatalf("record 18 carries i=%v", v)
	}
	if occ, off, err := r.Next(); err != nil || off != 19 {
		t.Fatalf("off=%d err=%v", off, err)
	} else if v, _ := occ.Params.Get("i"); v != 100 {
		t.Fatalf("rewritten record 19 carries i=%v", v)
	}
}

func TestEventLogCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(mkOccs(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the last record's payload: CRC catches it and
	// recovery treats the record as torn.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != 9 {
		t.Fatalf("end after corrupt tail=%d want 9", l2.End())
	}
}

func TestEventLogTailFollow(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	r := l.ReaderAt(0)
	defer r.Close()
	got := make(chan uint64, 1)
	go func() {
		_, off, err := r.Next() // blocks: log is empty
		if err != nil {
			return
		}
		got <- off
	}()
	time.Sleep(50 * time.Millisecond) // let the reader reach the tail wait
	if _, err := l.Append(mkOccs(0, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case off := <-got:
		if off != 0 {
			t.Fatalf("tail follower got offset %d", off)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tail follower never woke")
	}
}

func TestEventLogCloseWakesReaders(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	r := l.ReaderAt(0)
	defer r.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Next()
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, errLogClosed) {
			t.Fatalf("want errLogClosed, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader not woken by Close")
	}
}

func TestEventLogDurableWatermark(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(mkOccs(0, 3)); err != nil {
		t.Fatal(err)
	}
	if l.Durable() != 0 {
		t.Fatalf("durable=%d before Sync", l.Durable())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Durable() != 3 {
		t.Fatalf("durable=%d after Sync", l.Durable())
	}

	lsync, err := OpenEventLog(t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer lsync.Close()
	if _, err := lsync.Append(mkOccs(0, 2)); err != nil {
		t.Fatal(err)
	}
	if lsync.Durable() != 2 {
		t.Fatalf("fsync log durable=%d", lsync.Durable())
	}
}

// A write error seals the log: the half-written record is never followed
// by another, so the next open — which truncates at it — keeps every
// contribution that was acknowledged. Arming the storage WAL's points
// fires nothing in here.
func TestEventLogSealsAfterWriteError(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	const acked = 12
	for i := 0; i < acked; i += 4 {
		if first, err := l.Append(mkOccs(i, 4)); err != nil || first != uint64(i) {
			t.Fatalf("first=%d err=%v", first, err)
		}
	}

	boom := errors.New("short write")
	in := faults.NewInjector(1,
		faults.Trigger{Point: faults.WALAppend, On: 1, Every: 1},
		faults.Trigger{Point: faults.WALFlush, On: 1, Every: 1},
		faults.Trigger{Point: faults.GEDLogFlush, On: 2, Fault: faults.Fault{Partial: 21, Err: boom}})
	faults.Arm(in)
	if first, err := l.Append(mkOccs(acked, 1)); err != nil || first != acked {
		t.Fatalf("append under the storage.wal faults: first=%d err=%v", first, err)
	}
	_, err = l.Append(mkOccs(acked+1, 3))
	faults.Disarm()
	if !errors.Is(err, boom) {
		t.Fatalf("append over the short write: %v, want the injected error", err)
	}
	if in.Hits(faults.WALAppend)+in.Hits(faults.WALFlush) != 0 {
		t.Fatal("the GED log consulted the storage WAL's fault points")
	}
	if _, err := l.Append(mkOccs(acked+4, 1)); !errors.Is(err, seglog.ErrSealed) {
		t.Fatalf("append after the write error: %v, want seglog.ErrSealed", err)
	}
	if l.End() != acked+1 {
		t.Fatalf("end=%d after the failed batch, want %d", l.End(), acked+1)
	}
	if err := l.Close(); !errors.Is(err, seglog.ErrSealed) {
		t.Fatalf("close of the sealed log: %v", err)
	}

	l2, err := OpenEventLog(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.End() != acked+1 {
		t.Fatalf("end after reopen=%d want %d", l2.End(), acked+1)
	}
	r := l2.ReaderAt(0)
	defer r.Close()
	for i := 0; i <= acked; i++ {
		occ, off, err := r.Next()
		if err != nil || off != uint64(i) {
			t.Fatalf("acked record %d: off=%d err=%v", i, off, err)
		}
		if v, _ := occ.Params.Get("i"); v != i {
			t.Fatalf("acked record %d carries i=%v", i, v)
		}
	}
	if first, err := l2.Append(mkOccs(100, 1)); err != nil || first != acked+1 {
		t.Fatalf("append after recovery: first=%d err=%v", first, err)
	}
}

// A log directory in the previous record layout (GEDLOG01: bare occurrence
// payloads, segments named by record offset) is refused, not truncated.
func TestEventLogRejectsOldFormat(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, fmt.Sprintf("%016x.seg", 0))
	old := append([]byte("GEDLOG01"), 3, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd, 1, 2, 3)
	if err := os.WriteFile(seg, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEventLog(dir, 0, false); err == nil {
		t.Fatal("opened a GEDLOG01 directory")
	}
	if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("rejected segment was modified (%v)", err)
	}
}
