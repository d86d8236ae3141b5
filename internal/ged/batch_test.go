package ged

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/frame"
)

// The server takes the contribute frames one read buffered as one batch:
// one log append, one SignalBatch, one ack. These tests write several
// frames with one flush (one write on loopback), so the server finds them
// buffered together.

// contribution is the one-occurrence contribute payload for seq, its tag
// a fixed-width string so a decode that aliased the reused frame buffer
// would read a later frame's tag in place.
func contribution(t *testing.T, seq uint64, name string) []byte {
	t.Helper()
	occ := event.Occurrence{Name: name, Params: event.NewParams("tag", fmt.Sprintf("t%05d", seq))}
	payload, err := encodeContribute(nil, seq, []event.Occurrence{occ})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// writeAll writes the frames back to back and flushes once.
func (rc *rawClient) writeAll(kinds []frameKind, payloads [][]byte) {
	rc.t.Helper()
	for i, p := range payloads {
		if err := rc.fw.Write(uint8(kinds[i]), p); err != nil {
			rc.t.Fatal(err)
		}
	}
	if err := rc.fw.Flush(); err != nil {
		rc.t.Fatal(err)
	}
}

// readLogged reads records [0, n) of the server's log and checks that
// each holds the contribution sent with seq offset+1.
func readLogged(t *testing.T, s *Server, n int) {
	t.Helper()
	r := s.Log().ReaderAt(0)
	defer r.Close()
	for i := 0; i < n; i++ {
		occ, off, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		tag, _ := occ.Params.Get("tag")
		if want := fmt.Sprintf("t%05d", i+1); off != uint64(i) || tag != want {
			t.Fatalf("record %d: offset %d tag %v, want offset %d tag %s", i, off, tag, i, want)
		}
	}
}

// Single-occurrence frames pipelined in one write are logged, signalled
// and acked in fewer batches and acks than frames, at contiguous offsets
// in send order.
func TestPipelinedContributionsBatch(t *testing.T) {
	s, addr := startLogServer(t, Options{})
	rc := dialRaw(t, addr)
	rc.hello("pipe")
	const frames = 200
	kinds := make([]frameKind, frames)
	payloads := make([][]byte, frames)
	for i := range payloads {
		kinds[i], payloads[i] = frContribute, contribution(t, uint64(i+1), "piped")
	}
	rc.writeAll(kinds, payloads)

	acks := 0
	for {
		kind, payload, err := rc.read()
		if err != nil {
			t.Fatal(err)
		}
		if kind != frContributeAck {
			t.Fatalf("unexpected %v frame", kind)
		}
		acks++
		seq, offset, err := decodeContributeAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		if offset != seq {
			t.Fatalf("ack for seq %d carries log end %d: one record per frame, in order", seq, offset)
		}
		if seq == frames {
			break
		}
	}
	batches := s.met.contribBatch.Value()
	if acks >= frames || batches >= frames {
		t.Fatalf("%d frames took %d acks and %d batches: no batching", frames, acks, batches)
	}
	if got := s.met.contribOccs.Value(); got != frames {
		t.Fatalf("%d occurrences counted, want %d", got, frames)
	}
	if got := s.met.logAppends.Value(); got != batches {
		t.Fatalf("%d log appends for %d batches", got, batches)
	}
	readLogged(t, s, frames)
}

// A subscribe buffered between contribute frames ends the batch: the
// contributions before it are signalled (and acked) before the
// subscription starts, so only the one after it is notified.
func TestSubscribeEndsContributeBatch(t *testing.T) {
	s, addr := startServer(t)
	rc := dialRaw(t, addr)
	rc.hello("ordered")
	rc.writeAll(
		[]frameKind{frContribute, frContribute, frSubscribe, frContribute},
		[][]byte{
			contribution(t, 1, "x"),
			contribution(t, 2, "x"),
			encodeSubscribe(7, "x", int(detector.Recent), subLive, 0),
			contribution(t, 3, "x"),
		})

	var got []string
	for {
		kind, payload, err := rc.read()
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case frContributeAck:
			seq, _, _ := decodeContributeAck(payload)
			got = append(got, fmt.Sprintf("ack %d", seq))
		case frSubscribeAck:
			id, _, _ := decodeSubscribeAck(payload)
			got = append(got, fmt.Sprintf("subscribed %d", id))
		case frNotify:
			_, _, occ, err := decodeNotify(payload)
			if err != nil {
				t.Fatal(err)
			}
			tag, _ := occ.Params.Get("tag")
			got = append(got, fmt.Sprintf("notify %v", tag))
		default:
			t.Fatalf("unexpected %v frame", kind)
		}
		if got[len(got)-1] == "ack 3" {
			break
		}
	}
	want := fmt.Sprint([]string{"ack 2", "subscribed 7", "notify t00003", "ack 3"})
	if fmt.Sprint(got) != want {
		t.Fatalf("frames %v, want %s", got, want)
	}
	if b := s.met.contribBatch.Value(); b != 2 {
		t.Fatalf("%d batches, want 2 (the subscribe splits them)", b)
	}
}

// A malformed frame buffered behind valid ones ends the batch: the valid
// frames are logged, signalled and acked, and only then does the protocol
// error close the connection.
func TestMalformedFrameAfterValidOnes(t *testing.T) {
	s, addr := startLogServer(t, Options{})
	rc := dialRaw(t, addr)
	rc.hello("sloppy")
	rc.send(frSubscribe, encodeSubscribe(1, "y", int(detector.Recent), subLive, 0))
	if kind, _, err := rc.read(); err != nil || kind != frSubscribeAck {
		t.Fatalf("subscribe: kind=%v err=%v", kind, err)
	}
	rc.writeAll(
		[]frameKind{frContribute, frContribute, frContribute},
		[][]byte{contribution(t, 1, "y"), contribution(t, 2, "y"), {0xff, 0xff, 0xff}})

	var got []frameKind
	for {
		kind, payload, err := rc.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, kind)
		if kind == frContributeAck {
			if seq, offset, _ := decodeContributeAck(payload); seq != 2 || offset != 2 {
				t.Fatalf("ack seq %d offset %d, want 2 and 2", seq, offset)
			}
		}
	}
	want := fmt.Sprint([]frameKind{frNotify, frNotify, frContributeAck, frError, frGoodbye})
	if fmt.Sprint(got) != want {
		t.Fatalf("frames %v, want %s", got, want)
	}
	if s.met.protoErrors.Value() != 1 {
		t.Fatal("protocol error not counted")
	}
	readLogged(t, s, 2)
}

// Decoded occurrences own their bytes: scribbling over the payload after
// the decode (as the next Read does to the reused frame buffer) changes
// none of them.
func TestDecodedContributionsDoNotAliasPayload(t *testing.T) {
	in := fullOccurrence()
	payload, err := encodeContribute(nil, 9, []event.Occurrence{in, in})
	if err != nil {
		t.Fatal(err)
	}
	_, occs, err := decodeContribute(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(occs)
	for i := range payload {
		payload[i] = 'Z'
	}
	if after := fmt.Sprint(occs); after != before {
		t.Fatalf("decoded occurrences changed with their payload:\n%s\n%s", before, after)
	}
}

// Contribute encodes into a buffer the client reuses and its frame writer
// copies: one occurrence costs no allocation on the send path.
func TestContributeSendAllocations(t *testing.T) {
	c := &Client{fw: frame.NewWriter(io.Discard, maxFrame)}
	occ := event.Occurrence{Name: "order_placed", Params: event.NewParams("pair", int64(7), "amount", int64(12))}
	batch := []event.Occurrence{occ, occ}
	if got := testing.AllocsPerRun(1000, func() {
		if err := c.Contribute(&occ); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Contribute allocates %.1f times, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if err := c.ContributeBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("ContributeBatch allocates %.1f times, want 0", got)
	}
}

// The server decodes a contribute batch straight into the slots of its
// reused batch slice: each occurrence costs what its own fields need (the
// allocations of a heap decode less the Occurrence itself), nothing more.
func TestDecodeContributeAllocations(t *testing.T) {
	occ := event.Occurrence{Name: "order_placed", Params: event.NewParams("pair", int64(7), "amount", int64(12))}
	const n = 16
	occs := make([]event.Occurrence, n)
	for i := range occs {
		occs[i] = occ
	}
	payload, err := encodeContribute(nil, 1, occs)
	if err != nil {
		t.Fatal(err)
	}
	one, err := event.AppendOccurrence(nil, &occ)
	if err != nil {
		t.Fatal(err)
	}
	heap := testing.AllocsPerRun(100, func() {
		if r := event.NewReader(one); r.Occurrence() == nil {
			t.Fatal(r.Err())
		}
	})
	dst := make([]event.Occurrence, 0, n)
	got := testing.AllocsPerRun(100, func() {
		var err error
		if _, dst, err = decodeContribute(payload, dst[:0]); err != nil || len(dst) != n {
			t.Fatalf("decoded %d occurrences (%v), want %d", len(dst), err, n)
		}
	})
	if want := n * (heap - 1); got > want {
		t.Fatalf("decoding %d occurrences allocates %.0f times, want at most %.0f (%.0f per heap decode, less the Occurrence)",
			n, got, want, heap)
	}
}
