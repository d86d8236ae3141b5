package ged

import (
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/frame"
)

// fullOccurrence exercises every field and every atomic parameter type.
func fullOccurrence() event.Occurrence {
	return event.Occurrence{
		Name:     "stock_drop",
		Kind:     event.KindComposite,
		Class:    "STOCK",
		Method:   "set_price",
		Modifier: event.End,
		Object:   event.OID(42),
		Seq:      7,
		Time:     1234,
		Txn:      99,
		App:      "trader",
		Params: event.NewParams(
			"nil", nil,
			"b", true,
			"i", int(-5),
			"i8", int8(-8),
			"i16", int16(-16),
			"i32", int32(-32),
			"i64", int64(-64),
			"u", uint(5),
			"u8", uint8(8),
			"u16", uint16(16),
			"u32", uint32(32),
			"u64", uint64(64),
			"f32", float32(1.5),
			"f64", float64(2.5),
			"s", "hello",
			"oid", event.OID(7),
		),
		Constituents: []*event.Occurrence{
			{Name: "e1", Kind: event.KindExplicit, App: "a1",
				Params: event.NewParams("x", int(1))},
			{Name: "e2", Kind: event.KindExplicit, App: "a2",
				Constituents: []*event.Occurrence{{Name: "leaf"}}},
		},
	}
}

func TestWireOccurrenceRoundTrip(t *testing.T) {
	in := fullOccurrence()
	payload, err := encodeContribute(nil, 3, []event.Occurrence{in})
	if err != nil {
		t.Fatal(err)
	}
	seq, occs, err := decodeContribute(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || len(occs) != 1 {
		t.Fatalf("seq=%d len=%d", seq, len(occs))
	}
	if !reflect.DeepEqual(in, occs[0]) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, occs[0])
	}
	// Concrete parameter types must survive (rule conditions type-assert).
	v, _ := occs[0].Params.Get("i")
	if _, ok := v.(int); !ok {
		t.Fatalf("param i came back as %T, want int", v)
	}
	v, _ = occs[0].Params.Get("f32")
	if _, ok := v.(float32); !ok {
		t.Fatalf("param f32 came back as %T, want float32", v)
	}
	v, _ = occs[0].Params.Get("oid")
	if _, ok := v.(event.OID); !ok {
		t.Fatalf("param oid came back as %T, want event.OID", v)
	}
}

// Every truncation of a valid payload must produce an error — never a
// panic, never a bogus success.
func TestWireTruncatedPayloads(t *testing.T) {
	payload, err := encodeContribute(nil, 1, []event.Occurrence{fullOccurrence()})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := decodeContribute(payload[:cut], nil); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestWireTrailingBytesRejected(t *testing.T) {
	payload, err := encodeContribute(nil, 1, []event.Occurrence{{Name: "e"}})
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload, 0xde, 0xad)
	if _, _, err := decodeContribute(payload, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol for trailing bytes, got %v", err)
	}
}

func TestWireHelloVersionMismatch(t *testing.T) {
	payload := encodeHello("app")
	payload[0] = protoVersion + 1
	if _, err := decodeHello(payload); !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol, got %v", err)
	}
}

func TestWireNonAtomicParamRejected(t *testing.T) {
	occ := event.Occurrence{Name: "e", Params: event.ParamList{{Name: "bad", Value: struct{}{}}}}
	if _, err := encodeContribute(nil, 1, []event.Occurrence{occ}); err == nil {
		t.Fatal("encoded a non-atomic parameter value")
	}
}

// rawClient speaks the wire protocol directly, for driving the server
// with malformed input the real Client cannot produce.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	fw   *frame.Writer
	fr   *frame.Reader
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, fw: frame.NewWriter(conn, maxFrame), fr: frame.NewReader(conn, maxFrame)}
}

func (rc *rawClient) hello(app string) {
	rc.t.Helper()
	rc.send(frHello, encodeHello(app))
	kind, _, err := rc.read()
	if err != nil || kind != frHelloAck {
		rc.t.Fatalf("hello: kind=%v err=%v", kind, err)
	}
}

func (rc *rawClient) send(kind frameKind, payload []byte) {
	rc.t.Helper()
	if err := rc.fw.Send(uint8(kind), payload); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawClient) read() (frameKind, []byte, error) {
	_ = rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	kind, payload, err := rc.fr.Read()
	return frameKind(kind), payload, err
}

// An oversized announced length from a client gets an error frame and a
// closed connection, and is counted as a protocol error.
func TestServerRejectsOversizedFrame(t *testing.T) {
	s, addr := startServer(t)
	rc := dialRaw(t, addr)
	rc.hello("abuser")

	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxFrame+1)
	hdr[4] = byte(frContribute)
	if _, err := rc.conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := rc.read()
	if err != nil || kind != frError {
		t.Fatalf("want error frame, got kind=%v err=%v", kind, err)
	}
	if msg, _ := decodeError(payload); msg == "" {
		t.Fatal("empty protocol error message")
	}
	// The server then closes: reads drain to EOF.
	for {
		if _, _, err := rc.read(); err != nil {
			break
		}
	}
	if got := s.met.protoErrors.Value(); got == 0 {
		t.Fatal("protocol error not counted")
	}
}

// A syntactically broken payload in a known frame kind is also a
// protocol error, not a crash or a silent drop.
func TestServerRejectsGarbagePayload(t *testing.T) {
	s, addr := startServer(t)
	rc := dialRaw(t, addr)
	rc.hello("abuser")
	rc.send(frContribute, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	kind, _, err := rc.read()
	if err != nil || kind != frError {
		t.Fatalf("want error frame, got kind=%v err=%v", kind, err)
	}
	if got := s.met.protoErrors.Value(); got == 0 {
		t.Fatal("protocol error not counted")
	}
}

// A client that dies mid-frame (torn frame) must not wedge the server:
// the connection is reaped and Close still completes promptly.
func TestServerTornFrameDisconnect(t *testing.T) {
	s, addr := startServer(t)
	rc := dialRaw(t, addr)
	rc.hello("flaky")
	// Half a header, then hang up.
	if _, err := rc.conn.Write([]byte{0x10, 0x00}); err != nil {
		t.Fatal(err)
	}
	rc.conn.Close()

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close hung after torn-frame disconnect")
	}
}

// A frame kind the server does not expect from clients is rejected.
func TestServerRejectsUnexpectedKind(t *testing.T) {
	_, addr := startServer(t)
	rc := dialRaw(t, addr)
	rc.hello("confused")
	rc.send(frNotify, []byte{0})
	kind, _, err := rc.read()
	if err != nil || kind != frError {
		t.Fatalf("want error frame, got kind=%v err=%v", kind, err)
	}
}
