package detector

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/event"
	"repro/internal/seglog"
)

// EventLog records primitive event occurrences so composite events can be
// detected in batch mode, after the fact, over exactly the same graph that
// online detection uses (§2.1 "online and batch detection of events"). A
// log is one stream: an 8-byte magic, then one seglog record frame per
// occurrence carrying the internal/event codec — the same frame and codec
// the GED contribution log stores.
type EventLog struct {
	mu  sync.Mutex // Append is called from every component being signalled
	w   io.Writer
	buf []byte
	n   int
}

// eventLogMagic starts every recorded stream; anything else (the gob
// streams earlier versions wrote included) is rejected by Replay.
const eventLogMagic = "SNTLEVT1"

// NewEventLog creates a log writing to w.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w}
}

// Append records one primitive occurrence. Composite constituents are
// never logged (only primitives enter a log).
func (l *EventLog) Append(occ *event.Occurrence) error {
	if occ.IsComposite() {
		return errors.New("detector: composite occurrences are not logged")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	if l.n == 0 {
		b = append(b, eventLogMagic...)
	}
	start := len(b)
	b, err := event.AppendOccurrence(seglog.BeginFrame(b), occ)
	if err == nil {
		seglog.EndFrame(b, start)
		l.buf = b
		_, err = l.w.Write(b)
	}
	if err != nil {
		return fmt.Errorf("detector: append event log: %w", err)
	}
	l.n++
	return nil
}

// Len returns the number of occurrences appended.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Recorder returns a Tracer that appends every occurrence entering the
// detector to the log; install it with Detector.SetTracer to capture an
// application's event stream for later batch analysis. The raw trace
// point fires before subscriber routing, so the log is complete even for
// events nothing was subscribed to at recording time. Occurrences of one
// component are logged in the order it consumed them (the Tracer contract),
// which is all a replay needs: occurrences of different components never
// meet at an operator.
func (l *EventLog) Recorder() Tracer {
	return tracerFunc(func(kind TraceKind, occ *event.Occurrence, _ Context, _ string) {
		if kind == TraceRaw && occ != nil && !occ.IsComposite() {
			_ = l.Append(occ)
		}
	})
}

type tracerFunc func(kind TraceKind, occ *event.Occurrence, ctx Context, node string)

func (f tracerFunc) Trace(kind TraceKind, occ *event.Occurrence, ctx Context, node string) {
	f(kind, occ, ctx, node)
}

// replayChunk bounds how many decoded occurrences are buffered before
// being handed to SignalBatch: large enough to amortize the graph lock to
// noise, small enough to keep replay memory flat on huge logs.
const replayChunk = 256

// Replay feeds every occurrence in r through the detector, in recorded
// order, advancing the detector's virtual clock to each occurrence's
// timestamp so temporal operators behave as they did online. Occurrences
// are decoded into chunks and injected with SignalBatch, so the graph
// lock is taken once per chunk instead of once per occurrence. It returns
// the number of occurrences replayed.
func Replay(r io.Reader, d *Detector) (int, error) {
	br := bufio.NewReader(r)
	var magic [len(eventLogMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err == io.EOF {
		return 0, nil // nothing was recorded
	} else if err != nil || string(magic[:]) != eventLogMagic {
		return 0, fmt.Errorf("detector: replay event log: not an event log (want magic %q)", eventLogMagic)
	}
	n := 0
	batch := make([]event.Occurrence, 0, replayChunk)
	flush := func() error {
		done, err := d.SignalBatch(batch)
		n += done
		batch = batch[:0]
		return err
	}
	var buf []byte
	for {
		payload, err := seglog.ReadFrame(br, buf)
		if err == io.EOF {
			return n, flush()
		}
		var occ *event.Occurrence
		if err == nil {
			buf = payload
			dec := event.NewReader(payload)
			occ, err = dec.Occurrence(), dec.Err()
		}
		if err != nil {
			if ferr := flush(); ferr != nil {
				return n, ferr
			}
			return n, fmt.Errorf("detector: replay event log: %w", err)
		}
		if occ.Kind == event.KindMethod {
			// Logged method events replay through the signature path, as
			// they were signalled originally (an unnamed method occurrence
			// routes by class, method and modifier).
			occ.Name = ""
		}
		batch = append(batch, *occ)
		if len(batch) == replayChunk {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
}

// ReplayFile replays a log from a file path.
func ReplayFile(path string, d *Detector) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("detector: open event log: %w", err)
	}
	defer f.Close()
	return Replay(f, d)
}
