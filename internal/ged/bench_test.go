package ged

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/event"
)

// The GED benchmark suite behind `make bench-ged` (BENCH_ged.json, CI
// bench-compare gated): contribute throughput over the pipelined wire
// protocol, live notify fan-out latency, and replay catch-up rate.

func benchServer(b *testing.B, withLog bool) (*Server, string) {
	b.Helper()
	opts := Options{}
	if withLog {
		opts.LogDir = b.TempDir()
	}
	s, err := NewServerOptions(opts)
	if err != nil {
		b.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s, addr
}

// BenchmarkGED_Contribute measures acknowledged contribute throughput
// through the full stack — client encode, TCP, server decode, durable
// log append, SignalBatch — pipelined in batches of 64.
func BenchmarkGED_Contribute(b *testing.B) {
	_, addr := benchServer(b, true)
	cli, err := Dial(addr, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	const batch = 64
	occs := make([]event.Occurrence, batch)
	for i := range occs {
		occs[i] = event.Occurrence{
			Name:   fmt.Sprintf("bench_e%d", i%8),
			Params: event.NewParams("i", i, "v", 3.14),
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		if n+batch > b.N {
			occs = occs[:b.N-n]
		}
		if err := cli.ContributeBatch(occs); err != nil {
			b.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkGED_ContributeSingles is ged_fanin's shape: one occurrence
// per Contribute (one frame each), a Flush every 1 024, the durable log
// on. The server takes the frames one read buffered as one batch, so
// appends, graph signals and acks are per batch rather than per frame.
func BenchmarkGED_ContributeSingles(b *testing.B) {
	_, addr := benchServer(b, true)
	cli, err := Dial(addr, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	const flushEvery = 1024
	occ := event.Occurrence{Name: "order_placed", Params: event.NewParams("pair", int64(0), "amount", int64(42))}
	b.ResetTimer()
	for n := 1; n <= b.N; n++ {
		occ.Params[0].Value = int64(n)
		if err := cli.Contribute(&occ); err != nil {
			b.Fatal(err)
		}
		if n%flushEvery == 0 {
			if err := cli.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := cli.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkGED_NotifyFanout measures contribute→notify latency with 8
// live subscribers: each iteration contributes one event and waits until
// every subscriber's callback has fired, so ns/op is the end-to-end
// fan-out round trip.
func BenchmarkGED_NotifyFanout(b *testing.B) {
	const fanout = 8
	_, addr := benchServer(b, false)

	var wg sync.WaitGroup
	subs := make([]*Client, fanout)
	for i := range subs {
		c, err := Dial(addr, fmt.Sprintf("sub%d", i))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		subs[i] = c
		if err := c.Subscribe("fan", detector.Recent, func(*event.Occurrence, detector.Context) {
			wg.Done()
		}); err != nil {
			b.Fatal(err)
		}
	}
	cli, err := Dial(addr, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		wg.Add(fanout)
		if err := cli.Contribute(&event.Occurrence{Name: "fan", Params: event.NewParams("n", n)}); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fanout), "ns/notify")
}

// BenchmarkGED_ReplayCatchup measures how fast a late joiner drains the
// durable log: b.N events are contributed up front, then one stream
// subscription replays them all from offset 0.
func BenchmarkGED_ReplayCatchup(b *testing.B) {
	_, addr := benchServer(b, true)
	cli, err := Dial(addr, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	const batch = 256
	occs := make([]event.Occurrence, batch)
	for i := range occs {
		occs[i] = event.Occurrence{Name: "replayed", Params: event.NewParams("i", i)}
	}
	for n := 0; n < b.N; n += batch {
		part := occs
		if n+batch > b.N {
			part = occs[:b.N-n]
		}
		if err := cli.ContributeBatch(part); err != nil {
			b.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		b.Fatal(err)
	}

	late, err := Dial(addr, "late")
	if err != nil {
		b.Fatal(err)
	}
	defer late.Close()
	done := make(chan struct{})
	var once sync.Once
	target := uint64(b.N) - 1

	b.ResetTimer()
	if _, err := late.SubscribeFrom("replayed", 0, func(_ *event.Occurrence, off uint64) {
		if off >= target {
			once.Do(func() { close(done) })
		}
	}); err != nil {
		b.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		b.Fatal("replay did not catch up")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
