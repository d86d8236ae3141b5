package seglog

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// isClosed reports whether ch is already closed.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// waitClosed fails the test unless ch closes within a generous bound.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: cursor never woke", what)
	}
}

// appendOne buffers record i without flushing it.
func appendOne(t *testing.T, l *Log, i int) {
	t.Helper()
	b := BeginFrame(nil)
	b = append(b, payload(i)...)
	EndFrame(b, 0)
	if _, err := l.Append(b, 1); err != nil {
		t.Fatal(err)
	}
}

// drain reads the cursor until it is caught up and returns the records read.
func drain(t *testing.T, c *Cursor) int {
	t.Helper()
	total := 0
	for {
		_, _, n, err := c.ReadBatch(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return total
		}
		total += n
	}
}

// TestCursorReadyWakesOnFlush: a caught-up cursor's channel stays open
// while records are only appended, and closes when a flush moves the
// watermark past the cursor.
func TestCursorReadyWakesOnFlush(t *testing.T) {
	l := mustOpen(t, testConfig(t.TempDir(), 1<<20))
	defer l.Close()
	appendFlush(t, l, 0, 3)
	c := l.NewCursor(0)
	defer c.Close()
	if n := drain(t, c); n != 3 {
		t.Fatalf("read %d records, want 3", n)
	}
	ready := c.Ready()
	appendOne(t, l, 3)
	if isClosed(ready) {
		t.Fatal("cursor woke on an append the log has not flushed")
	}
	go func() { _ = l.Flush(^uint64(0)) }()
	waitClosed(t, ready, "flush")
	if n := drain(t, c); n != 1 {
		t.Fatalf("read %d records after the flush, want 1", n)
	}
}

// TestCursorReadyAtOnceWhenFlushedPast: a cursor that still has flushed
// records to read gets an already-closed channel.
func TestCursorReadyAtOnceWhenFlushedPast(t *testing.T) {
	l := mustOpen(t, testConfig(t.TempDir(), 1<<20))
	defer l.Close()
	appendFlush(t, l, 0, 2)
	c := l.NewCursor(0)
	defer c.Close()
	if !isClosed(c.Ready()) {
		t.Fatal("cursor behind the watermark was told to wait")
	}
	drain(t, c)
	if isClosed(c.Ready()) {
		t.Fatal("caught-up cursor on a healthy log was not told to wait")
	}
}

// TestCursorReadyWakesOnSealAndClose: sealing or closing the log wakes a
// caught-up cursor, whose next read then reports that the log is done —
// so a reader on a dead log exits instead of spinning.
func TestCursorReadyWakesOnSealAndClose(t *testing.T) {
	t.Run("seal", func(t *testing.T) {
		l := mustOpen(t, testConfig(t.TempDir(), 1<<20))
		defer l.Close()
		appendFlush(t, l, 0, 2)
		c := l.NewCursor(0)
		defer c.Close()
		drain(t, c)
		ready := c.Ready()
		go l.Seal(errors.New("injected"))
		waitClosed(t, ready, "seal")
		if _, _, _, err := c.ReadBatch(1 << 16); !errors.Is(err, ErrSealed) {
			t.Fatalf("caught-up read of a sealed log: %v, want ErrSealed", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		l := mustOpen(t, testConfig(t.TempDir(), 1<<20))
		appendFlush(t, l, 0, 2)
		c := l.NewCursor(0)
		defer c.Close()
		drain(t, c)
		ready := c.Ready()
		appendOne(t, l, 2) // Close flushes it: the cursor reads it first
		go func() { _ = l.Close() }()
		waitClosed(t, ready, "close")
		if _, _, n, err := c.ReadBatch(1 << 16); n != 1 || err != nil {
			t.Fatalf("read %d records flushed by Close (%v), want 1", n, err)
		}
		// The flush woke ready before Close marked the log closed; a fresh
		// Ready closes once it has.
		waitClosed(t, c.Ready(), "close")
		if _, _, _, err := c.ReadBatch(1 << 16); !errors.Is(err, ErrClosed) {
			t.Fatalf("caught-up read of a closed log: %v, want ErrClosed", err)
		}
	})
}

// TestCursorReadyNoLostWakeup (meant for -race): a writer flushes while a
// reader sits between a caught-up ReadBatch and Ready. Every flush must
// reach the reader: it reads every record, and never waits on a log that
// already moved past it.
func TestCursorReadyNoLostWakeup(t *testing.T) {
	l := mustOpen(t, testConfig(t.TempDir(), 1<<20))
	defer l.Close()
	const records = 2000
	c := l.NewCursor(0)
	defer c.Close()
	// The window made deterministic: caught up, then a flush, then Ready.
	drain(t, c)
	appendFlush(t, l, 0, 1)
	if !isClosed(c.Ready()) {
		t.Fatal("a flush between ReadBatch and Ready was lost")
	}
	read := drain(t, c)

	// And raced: a writer flushing record by record against the reader.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < records; i++ {
			b := BeginFrame(nil)
			b = append(b, payload(i)...)
			EndFrame(b, 0)
			if _, err := l.Append(b, 1); err != nil {
				t.Error(err)
				return
			}
			if err := l.Flush(^uint64(0)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for read < records {
		_, _, n, err := c.ReadBatch(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			read += n
			continue
		}
		// The window: a flush here, before Ready registers, must still
		// close the channel Ready hands out (or Ready must not wait).
		select {
		case <-c.Ready():
		case <-time.After(10 * time.Second):
			t.Fatalf("lost wake-up: %d of %d records read, log flushed to %d, cursor at %d",
				read, records, l.Flushed(), c.pos)
		}
	}
	wg.Wait()
	if read != records {
		t.Fatalf("read %d records, want %d", read, records)
	}
}
