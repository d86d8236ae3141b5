package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/faults"
)

const (
	testMagic = "TESTLOG1"
	testExt   = ".seg"
)

var testFaults = Faults{Append: "seglog.test.append", Flush: "seglog.test.flush", Fsync: "seglog.test.fsync"}

func testConfig(dir string, segBytes int64) Config {
	return Config{Dir: dir, Magic: testMagic, Ext: testExt, SegBytes: segBytes, Faults: testFaults}
}

func mustOpen(tb testing.TB, cfg Config) *Log {
	tb.Helper()
	l, err := Open(cfg)
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	return l
}

// payload is the i-th test record body; sizes vary so frames do not align
// with any read boundary by accident.
func payload(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26)}, 1+i*7%53)
}

// appendFlush appends records [from, to) one flush each and returns their
// offsets.
func appendFlush(tb testing.TB, l *Log, from, to int) []uint64 {
	tb.Helper()
	var offs []uint64
	for i := from; i < to; i++ {
		b := BeginFrame(nil)
		b = append(b, payload(i)...)
		EndFrame(b, 0)
		off, err := l.Append(b, 1)
		if err != nil {
			tb.Fatalf("append %d: %v", i, err)
		}
		if err := l.Flush(^uint64(0)); err != nil {
			tb.Fatalf("flush %d: %v", i, err)
		}
		offs = append(offs, off)
	}
	return offs
}

// scanAll returns every record from offset from.
func scanAll(tb testing.TB, l *Log, from uint64) (offs []uint64, payloads [][]byte) {
	tb.Helper()
	err := l.Scan(from, func(off uint64, p []byte) error {
		offs = append(offs, off)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		tb.Fatalf("scan from %d: %v", from, err)
	}
	return offs, payloads
}

func checkRecords(tb testing.TB, l *Log, wantOffs []uint64) {
	tb.Helper()
	offs, payloads := scanAll(tb, l, l.Start())
	if len(offs) != len(wantOffs) {
		tb.Fatalf("scanned %d records, want %d", len(offs), len(wantOffs))
	}
	for i := range offs {
		if offs[i] != wantOffs[i] || !bytes.Equal(payloads[i], payload(i)) {
			tb.Fatalf("record %d: offset %d payload %q, want offset %d payload %q",
				i, offs[i], payloads[i], wantOffs[i], payload(i))
		}
	}
}

func activePath(tb testing.TB, dir string) string {
	tb.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+testExt))
	if err != nil || len(names) == 0 {
		tb.Fatalf("no segments in %s (%v)", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

func TestAppendScanReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	l := mustOpen(t, testConfig(dir, 1<<20))
	offs := appendFlush(t, l, 0, 20)
	if offs[0] != 0 || l.End() != l.Flushed() || l.End() <= offs[19] {
		t.Fatalf("offsets %v end %d flushed %d", offs, l.End(), l.Flushed())
	}
	checkRecords(t, l, offs)
	if got, _ := scanAll(t, l, offs[7]); len(got) != 13 || got[0] != offs[7] {
		t.Fatalf("scan from record 7 returned %v", got)
	}
	end := l.End()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(activePath(t, dir)); err != nil || st.Size() != SegHeaderLen+int64(end) {
		t.Fatalf("closed segment is %d bytes (%v), want %d: preallocated tail not dropped", st.Size(), err, SegHeaderLen+int64(end))
	}

	l = mustOpen(t, testConfig(dir, 1<<20))
	defer l.Close()
	if l.End() != end {
		t.Fatalf("reopened end %d, want %d", l.End(), end)
	}
	offs = append(offs, appendFlush(t, l, 20, 25)...)
	checkRecords(t, l, offs)
}

// A record that is appended but not flushed is not readable and not part
// of the log a crash leaves behind.
func TestUnflushedRecordsAreNotRead(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, testConfig(dir, 1<<20))
	defer l.Close()
	offs := appendFlush(t, l, 0, 3)
	b := BeginFrame(nil)
	b = append(b, "pending"...)
	EndFrame(b, 0)
	if _, err := l.Append(b, 1); err != nil {
		t.Fatal(err)
	}
	c := l.NewCursor(0)
	defer c.Close()
	_, _, n, err := c.ReadBatch(1 << 16)
	if err != nil || n != 3 {
		t.Fatalf("cursor read %d records (%v), want the 3 flushed ones", n, err)
	}
	if l.Flushed() >= l.End() {
		t.Fatal("the buffered record is reported flushed")
	}
	_, _, flushes, _ := l.Stats()
	if batch, err := l.WaitDurable(offs[2]); batch != 0 || err != nil {
		t.Fatalf("WaitDurable of the flushed prefix = %d, %v; want 0, nil", batch, err)
	}
	if _, _, f, _ := l.Stats(); f != flushes {
		t.Fatal("WaitDurable of the flushed prefix forced the log")
	}
}

// Every way a crash can leave the tail of the active segment — cut
// mid-frame, a flipped bit, a zero-filled preallocation, garbage — opens
// to the intact prefix, and appends continue right behind it.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string, lastOff, end int64)
		keep   int // records that survive, of 10
	}{
		{"cut mid frame", func(t *testing.T, path string, _, end int64) {
			if err := os.Truncate(path, SegHeaderLen+end-3); err != nil {
				t.Fatal(err)
			}
		}, 9},
		{"cut mid header", func(t *testing.T, path string, lastOff, _ int64) {
			if err := os.Truncate(path, SegHeaderLen+lastOff+5); err != nil {
				t.Fatal(err)
			}
		}, 9},
		{"flipped payload bit", func(t *testing.T, path string, lastOff, _ int64) {
			patch(t, path, SegHeaderLen+lastOff+FrameHeaderLen, func(b byte) byte { return b ^ 0x40 })
		}, 9},
		{"zero tail", func(t *testing.T, path string, _, end int64) {
			if err := os.Truncate(path, SegHeaderLen+end+1<<16); err != nil {
				t.Fatal(err)
			}
		}, 10},
		{"garbage tail", func(t *testing.T, path string, _, _ int64) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(bytes.Repeat([]byte{0xff, 0x01, 0x7e}, 100)); err != nil {
				t.Fatal(err)
			}
		}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, testConfig(dir, 1<<20))
			offs := appendFlush(t, l, 0, 10)
			end := l.End()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, activePath(t, dir), int64(offs[9]), int64(end))

			l = mustOpen(t, testConfig(dir, 1<<20))
			defer l.Close()
			wantEnd := end
			if tc.keep < len(offs) {
				wantEnd = offs[tc.keep]
			}
			offs = offs[:tc.keep]
			checkRecords(t, l, offs)
			if l.End() != wantEnd {
				t.Fatalf("end %d after recovery, want %d", l.End(), wantEnd)
			}
			offs = append(offs, appendFlush(t, l, tc.keep, tc.keep+3)...)
			checkRecords(t, l, offs)
		})
	}
}

func patch(t *testing.T, path string, at int64, fn func(byte) byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] = fn(b[0])
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
}

// Segments roll between flushes, stay contiguous and record-aligned, and
// a cursor follows the log across them and on into new appends.
func TestRollAndCursorFollowsTail(t *testing.T) {
	dir := t.TempDir()
	rolled := 0
	cfg := testConfig(dir, 200)
	cfg.OnChange = func() error { rolled++; return nil }
	l := mustOpen(t, cfg)
	offs := appendFlush(t, l, 0, 60)
	_, sealed := l.Segments()
	if len(sealed) < 3 || uint64(len(sealed)) != l.Rolls() || rolled != len(sealed) {
		t.Fatalf("%d sealed segments, %d rolls, %d OnChange calls", len(sealed), l.Rolls(), rolled)
	}
	next := uint64(0)
	for _, s := range sealed {
		if s.Base != next || s.End <= s.Base || !s.HasCRC {
			t.Fatalf("sealed inventory not contiguous: %+v", sealed)
		}
		if i := sort.Search(len(offs), func(i int) bool { return offs[i] >= s.End }); i == len(offs) || offs[i] != s.End {
			t.Fatalf("segment %+v does not end on a record boundary", s)
		}
		next = s.End
	}
	if l.ActiveBase() != next {
		t.Fatalf("active base %d, want %d", l.ActiveBase(), next)
	}

	c := l.NewCursor(offs[5])
	defer c.Close()
	read := func(want []uint64) {
		t.Helper()
		var got []uint64
		for {
			base, data, n, err := c.ReadBatch(32) // smaller than most records: exercises the single-record path
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for len(data) > 0 {
				_, size, err := NextFrame(data)
				if err != nil || size == 0 {
					t.Fatalf("batch at %d holds a bad frame (%v)", base, err)
				}
				got = append(got, base)
				base += uint64(size)
				data = data[size:]
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cursor read offsets %v, want %v", got, want)
		}
	}
	read(offs[5:])
	more := appendFlush(t, l, 60, 70)
	read(more)
	offs = append(offs, more...)

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, testConfig(dir, 200))
	defer l.Close()
	checkRecords(t, l, offs)
}

// A short write seals the log: nothing is appended behind the half-written
// record, and a reopen finds every record acknowledged before it.
func TestShortWriteSealsLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, testConfig(dir, 1<<20))
	offs := appendFlush(t, l, 0, 5)

	boom := errors.New("disk full")
	faults.Arm(faults.NewInjector(1, faults.Trigger{
		Point: testFaults.Flush, On: 1, Fault: faults.Fault{Partial: 11, Err: boom},
	}))
	b := BeginFrame(nil)
	b = append(b, payload(5)...)
	EndFrame(b, 0)
	if _, err := l.Append(b, 1); err != nil {
		t.Fatal(err)
	}
	err := l.Flush(^uint64(0))
	faults.Disarm()
	if !errors.Is(err, boom) {
		t.Fatalf("flush error %v, want the injected one", err)
	}
	if _, err := l.Append(b, 1); !errors.Is(err, ErrSealed) || !errors.Is(err, boom) {
		t.Fatalf("append after the failure: %v, want ErrSealed wrapping the cause", err)
	}
	if err := l.Flush(^uint64(0)); !errors.Is(err, ErrSealed) {
		t.Fatalf("flush after the failure: %v, want ErrSealed", err)
	}
	if _, err := l.WaitDurable(0); !errors.Is(err, ErrSealed) {
		t.Fatalf("WaitDurable after the failure: %v, want ErrSealed", err)
	}
	if err := l.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close of a sealed log: %v, want ErrSealed", err)
	}
	torn := make([]byte, 11)
	if fh, err := os.Open(activePath(t, dir)); err == nil {
		_, err = fh.ReadAt(torn, SegHeaderLen+int64(l.Flushed()))
		fh.Close()
	}
	if !bytes.Equal(torn, b[:11]) {
		t.Fatalf("the half-written record is not on disk (%x): the test injected nothing", torn)
	}

	l = mustOpen(t, testConfig(dir, 1<<20))
	defer l.Close()
	checkRecords(t, l, offs)
}

// One client's fault points never fire inside another client's log.
func TestFaultPointsArePerClient(t *testing.T) {
	other := testConfig(t.TempDir(), 1<<20)
	other.Faults = Faults{Append: "other.append", Flush: "other.flush", Fsync: "other.fsync"}
	l := mustOpen(t, other)
	defer l.Close()
	in := faults.NewInjector(1,
		faults.Trigger{Point: testFaults.Append, On: 1, Every: 1},
		faults.Trigger{Point: testFaults.Flush, On: 1, Every: 1})
	faults.Arm(in)
	defer faults.Disarm()
	appendFlush(t, l, 0, 3)
	if in.Hits(testFaults.Append)+in.Hits(testFaults.Flush) != 0 {
		t.Fatal("another client's points were consulted")
	}
}

// Archived segments leave the recovery path but stay readable until
// pruned; a reader below the pruned floor is told to resync.
func TestArchivePrune(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, testConfig(dir, 200))
	offs := appendFlush(t, l, 0, 60)
	_, sealed := l.Segments()
	if len(sealed) < 4 {
		t.Fatalf("only %d sealed segments", len(sealed))
	}
	upTo := sealed[2].End
	if n, err := l.Archive(upTo); err != nil || n != 3 {
		t.Fatalf("archive: moved %d (%v), want 3", n, err)
	}
	archived, left := l.Segments()
	if len(archived) != 3 || len(left) != len(sealed)-3 || l.Start() != 0 {
		t.Fatalf("after archive: %d archived, %d sealed, start %d", len(archived), len(left), l.Start())
	}
	if _, err := os.Stat(filepath.Join(dir, archiveDir, SegName(sealed[1].Base, testExt))); err != nil {
		t.Fatalf("archived segment not in the archive directory: %v", err)
	}
	checkRecords(t, l, offs) // cursors read through the archive

	if n, err := l.Prune(sealed[1].End); err != nil || n != 2 {
		t.Fatalf("prune: removed %d (%v), want 2", n, err)
	}
	if l.Start() != sealed[2].Base {
		t.Fatalf("start %d after prune, want %d", l.Start(), sealed[2].Base)
	}
	if err := l.Scan(0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("scan below the pruned floor: %v, want ErrTruncated", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = mustOpen(t, testConfig(dir, 200))
	defer l.Close()
	if l.Start() != sealed[2].Base || l.End() <= offs[59] {
		t.Fatalf("reopened log covers [%d, %d)", l.Start(), l.End())
	}
	if got, _ := scanAll(t, l, l.Start()); len(got) == 0 || got[len(got)-1] != offs[59] {
		t.Fatalf("reopened scan ends at %v, want %d", got, offs[59])
	}

}

// Archive verifies a sealed segment against the CRC accumulated while it
// was written before moving it out of the recovery path.
func TestArchiveVerifiesCRC(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, testConfig(dir, 200))
	defer l.Close()
	appendFlush(t, l, 0, 30)
	_, sealed := l.Segments()
	patch(t, filepath.Join(dir, SegName(sealed[0].Base, testExt)), SegHeaderLen+FrameHeaderLen, func(b byte) byte { return b ^ 1 })
	if _, err := l.Archive(sealed[0].End); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("archive of a damaged segment: %v, want ErrCorrupt", err)
	}
	if _, left := l.Segments(); len(left) != len(sealed) {
		t.Fatal("the damaged segment left the recovery path")
	}
}

// A directory written under another magic is rejected, untouched.
func TestForeignMagicRejected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, testConfig(dir, 1<<20))
	appendFlush(t, l, 0, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(activePath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dir, 1<<20)
	cfg.Magic = "TESTLOG2"
	if _, err := Open(cfg); err == nil {
		t.Fatal("opened a log written under another magic")
	}
	after, err := os.ReadFile(activePath(t, dir))
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("rejected segment was modified (%v)", err)
	}
}

// FuzzOpenTornTail overwrites the tail of a valid active segment with
// arbitrary bytes: Open never panics, recovers a prefix of what was
// written, and a second Open changes nothing.
func FuzzOpenTornTail(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(3), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint16(40), []byte{5, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'h', 'e', 'l', 'l', 'o'})
	f.Add(uint16(200), bytes.Repeat([]byte{0xff}, 64))
	whole := BeginFrame(nil)
	whole = append(whole, "a valid frame"...)
	EndFrame(whole, 0)
	f.Add(uint16(0), whole)

	f.Fuzz(func(t *testing.T, back uint16, tail []byte) {
		dir := t.TempDir()
		l := mustOpen(t, testConfig(dir, 1<<20))
		offs := appendFlush(t, l, 0, 12)
		end := l.End()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		path := activePath(t, dir)
		at := int64(end) - int64(back)%int64(end+1)
		fh, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fh.Truncate(SegHeaderLen + at); err == nil {
			_, err = fh.WriteAt(tail, SegHeaderLen+at)
		}
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}

		l = mustOpen(t, testConfig(dir, 1<<20))
		gotOffs, payloads := scanAll(t, l, 0)
		recovered := l.End()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Records wholly below the overwrite must survive; whatever follows
		// them parsed as frames out of the fuzz bytes.
		intact := sort.Search(len(offs), func(i int) bool {
			next := end
			if i+1 < len(offs) {
				next = offs[i+1]
			}
			return int64(next) > at
		})
		if len(gotOffs) < intact {
			t.Fatalf("recovered %d records, but %d lie wholly below the overwrite at %d", len(gotOffs), intact, at)
		}
		for i := 0; i < intact; i++ {
			if gotOffs[i] != offs[i] || !bytes.Equal(payloads[i], payload(i)) {
				t.Fatalf("record %d changed across recovery", i)
			}
		}
		if int64(recovered) > at+int64(len(tail)) {
			t.Fatalf("recovered end %d is past the file's %d bytes", recovered, at+int64(len(tail)))
		}
		st, err := os.Stat(path)
		if err != nil || st.Size() != SegHeaderLen+int64(recovered) {
			t.Fatalf("segment is %d bytes after recovery (%v), want %d", st.Size(), err, SegHeaderLen+int64(recovered))
		}

		l = mustOpen(t, testConfig(dir, 1<<20))
		defer l.Close()
		if l.End() != recovered {
			t.Fatalf("second open moved the end from %d to %d", recovered, l.End())
		}
		again, _ := scanAll(t, l, 0)
		if fmt.Sprint(again) != fmt.Sprint(gotOffs) {
			t.Fatalf("second open changed the records: %v then %v", gotOffs, again)
		}
	})
}
