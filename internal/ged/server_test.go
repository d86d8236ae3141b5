package ged

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
)

func startLogServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	if opts.LogDir == "" {
		opts.LogDir = t.TempDir()
	}
	s, err := NewServerOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

// A subscriber that stops reading must not block the detector or the
// contributor: its live notifies are shed (and counted) once its bounded
// send queue fills, and server Close still completes despite the stuck
// writer.
func TestServerBackpressureShedsNotifies(t *testing.T) {
	s, addr := startServer(t) // no log needed
	s.opts.SendQueue = 1      // set before any connection exists
	s.opts.DrainTimeout = 500 * time.Millisecond

	// Raw subscriber: completes the handshake, then never reads again.
	rc := dialRaw(t, addr)
	rc.hello("stuck")
	rc.send(frSubscribe, encodeSubscribe(1, "big", int(detector.Recent), subLive, 0))
	if kind, _, err := rc.read(); err != nil || kind != frSubscribeAck {
		t.Fatalf("subscribe: kind=%v err=%v", kind, err)
	}

	cli, err := Dial(addr, "pusher")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Big payloads fill the kernel socket buffers in a few dozen frames,
	// wedging the writer so the 1-slot queue overflows.
	blob := strings.Repeat("x", 32<<10)
	deadline := time.Now().Add(30 * time.Second)
	for s.met.notifyShed.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no notifies shed (sent=%d)", s.met.notifySent.Value())
		}
		err := cli.Contribute(&event.Occurrence{
			Name:   "big",
			Params: event.NewParams("blob", blob),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The contributor is never blocked by the stuck subscriber.
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Close hung on a stuck subscriber")
	}
}

// A subscriber joining after N contributions replays all N from offset 0,
// then keeps receiving the live tail.
func TestStreamReplayFromZero(t *testing.T) {
	_, addr := startLogServer(t, Options{})
	cli, err := Dial(addr, "producer")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := cli.Contribute(&event.Occurrence{
			Name:   fmt.Sprintf("e%d", i%2),
			Params: event.NewParams("i", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}

	late, err := Dial(addr, "late-joiner")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	var mu sync.Mutex
	var offs []uint64
	caught := make(chan struct{})
	var once sync.Once
	end, err := late.SubscribeFrom("*", 0, func(occ *event.Occurrence, off uint64) {
		mu.Lock()
		offs = append(offs, off)
		n := len(offs)
		mu.Unlock()
		if n >= 50 {
			once.Do(func() { close(caught) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != n {
		t.Fatalf("log end %d want %d", end, n)
	}
	select {
	case <-caught:
	case <-time.After(10 * time.Second):
		mu.Lock()
		got := len(offs)
		mu.Unlock()
		t.Fatalf("replay delivered %d of %d", got, n)
	}
	mu.Lock()
	for i, off := range offs[:n] {
		if off != uint64(i) {
			t.Fatalf("replay offset %d at position %d", off, i)
		}
	}
	mu.Unlock()

	// The stream keeps following the live tail after catching up.
	tail := make(chan uint64, 1)
	mu.Lock()
	offs = offs[:0]
	mu.Unlock()
	_, err = late.SubscribeFrom("tailed", n, func(occ *event.Occurrence, off uint64) {
		select {
		case tail <- off:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Contribute(&event.Occurrence{Name: "tailed"}); err != nil {
		t.Fatal(err)
	}
	select {
	case off := <-tail:
		if off != n {
			t.Fatalf("tail offset %d want %d", off, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tail delivery never arrived")
	}
}

// Stream subscriptions name-filter the log.
func TestStreamNameFilter(t *testing.T) {
	_, addr := startLogServer(t, Options{})
	cli, err := Dial(addr, "producer")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 30; i++ {
		if err := cli.Contribute(&event.Occurrence{Name: fmt.Sprintf("e%d", i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make(chan uint64, 16)
	if _, err := cli.SubscribeFrom("e1", 0, func(occ *event.Occurrence, off uint64) {
		if occ.Name != "e1" {
			t.Errorf("filtered stream delivered %q", occ.Name)
		}
		got <- off
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		select {
		case off := <-got:
			if off%3 != 1 {
				t.Fatalf("e1 at offset %d", off)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("received %d of 10 filtered records", i)
		}
	}
}

// After an abrupt disconnect, resuming from the last handled offset
// redelivers it — at-least-once — and an idempotent subscriber deduping
// on offset converges to exactly the log's contents.
func TestReconnectRedeliversDuplicates(t *testing.T) {
	_, addr := startLogServer(t, Options{})
	cli, err := Dial(addr, "producer")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if err := cli.Contribute(&event.Occurrence{Name: "e", Params: event.NewParams("i", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}

	seen := make(map[uint64]int)
	var mu sync.Mutex
	var last uint64
	half := make(chan struct{})
	var halfOnce sync.Once
	c1, err := Dial(addr, "consumer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SubscribeFrom("e", 0, func(occ *event.Occurrence, off uint64) {
		mu.Lock()
		seen[off]++
		last = off
		mu.Unlock()
		if off >= n/2 {
			halfOnce.Do(func() { close(half) })
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-half:
	case <-time.After(10 * time.Second):
		t.Fatal("first stream stalled")
	}
	_ = c1.Close() // injected disconnect mid-stream

	mu.Lock()
	resume := last
	mu.Unlock()
	done := make(chan struct{})
	var doneOnce sync.Once
	c2, err := Dial(addr, "consumer")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.SubscribeFrom("e", resume, func(occ *event.Occurrence, off uint64) {
		mu.Lock()
		seen[off]++
		complete := len(seen) == n && off == n-1
		mu.Unlock()
		if complete {
			doneOnce.Do(func() { close(done) })
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		got := len(seen)
		mu.Unlock()
		t.Fatalf("resumed stream stalled with %d/%d offsets", got, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen[resume] < 2 {
		t.Fatalf("resume offset %d delivered %d times, want a duplicate", resume, seen[resume])
	}
	for off := uint64(0); off < n; off++ {
		if seen[off] == 0 {
			t.Fatalf("offset %d never delivered", off)
		}
	}
}

// Stream subscriptions need a durable log; a log-less server must fail
// the subscribe, not accept and silently never deliver.
func TestStreamSubscribeWithoutLogFails(t *testing.T) {
	_, addr := startServer(t)
	cli, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.SubscribeFrom("e", 0, func(*event.Occurrence, uint64) {}); err == nil {
		t.Fatal("stream subscribe succeeded on a server without a log")
	}
}

// The contribution log survives a server restart: a new server over the
// same directory serves the old records.
func TestLogSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	s1, addr1 := startLogServer(t, Options{LogDir: dir})
	cli, err := Dial(addr1, "producer")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cli.Contribute(&event.Occurrence{Name: "e", Params: event.NewParams("i", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	s1.Close()

	_, addr2 := startLogServer(t, Options{LogDir: dir})
	c2, err := Dial(addr2, "late")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.LogEnd() != 10 {
		t.Fatalf("restarted log end=%d", c2.LogEnd())
	}
	done := make(chan struct{})
	var once sync.Once
	count := 0
	var mu sync.Mutex
	if _, err := c2.SubscribeFrom("e", 0, func(occ *event.Occurrence, off uint64) {
		mu.Lock()
		count++
		c := count
		mu.Unlock()
		if c == 10 {
			once.Do(func() { close(done) })
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("replay after restart incomplete")
	}
}

// Close must not race the accept loop: dialers keep connecting while Close
// runs, and a connection accepted late is either counted before Close
// waits for the handlers or refused. Run under -race, which reports the
// late count otherwise.
func TestCloseRacesAccept(t *testing.T) {
	for round := 0; round < 300; round++ {
		s := NewServer(nil)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var dialers sync.WaitGroup
		for i := 0; i < 8; i++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						return // listener closed
					}
					// Reset rather than linger: thousands of dials must not
					// leave the port range in TIME_WAIT.
					_ = conn.(*net.TCPConn).SetLinger(0)
					conn.Close()
				}
			}()
		}
		time.Sleep(time.Millisecond)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		dialers.Wait()
	}
}

// A server listens on one address: a second Listen fails instead of
// leaving the first listener's accept loop running past Close.
func TestSecondListenFails(t *testing.T) {
	s, _ := startServer(t)
	if addr, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Fatalf("second Listen succeeded on %s", addr)
	}
}
