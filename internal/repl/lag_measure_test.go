package repl

// Temporary measurement harness for EXPERIMENTS.md (replica lag vs write
// rate). Not part of the suite: run with
//   SENTINEL_MEASURE_LAG=1 go test -run TestMeasureReplicaLag -v ./internal/repl

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestMeasureReplicaLag(t *testing.T) {
	if os.Getenv("SENTINEL_MEASURE_LAG") == "" {
		t.Skip("measurement harness; set SENTINEL_MEASURE_LAG=1")
	}
	for _, rate := range []int{100, 1000, 10000, 0} { // txns/s; 0 = unthrottled
		leader := openLeader(t)
		srv, err := NewServer(leader, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fst := openFollowerStore(t)
		fol, err := StartFollower(fst, func() string { return srv.Addr() })
		if err != nil {
			t.Fatal(err)
		}
		for !fol.Connected() {
			time.Sleep(time.Millisecond)
		}

		var stop atomic.Bool
		samples := make(chan uint64, 100000)
		go func() {
			for !stop.Load() {
				end := leader.LogFlushed()
				applied := fst.ReplApplied()
				if end > applied {
					samples <- end - applied
				} else {
					samples <- 0
				}
				time.Sleep(2 * time.Millisecond)
			}
			close(samples)
		}()

		const txns = 3000
		const batch = 50 // pace in batches: per-txn sleeps bottom out at ~1ms
		var interval time.Duration
		if rate > 0 {
			interval = batch * time.Second / time.Duration(rate)
		}
		start := time.Now()
		for i := 0; i < txns; i++ {
			id, err := leader.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := leader.Insert(id, 0, []byte(fmt.Sprintf("lag-%06d", i))); err != nil {
				t.Fatal(err)
			}
			if err := leader.Commit(id); err != nil {
				t.Fatal(err)
			}
			if interval > 0 && i%batch == batch-1 {
				due := start.Add(time.Duration(i/batch+1) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
			}
		}
		elapsed := time.Since(start)
		_ = leader.FlushLog()
		target := leader.LogFlushed()
		convergeStart := time.Now()
		for fst.ReplApplied() < target {
			time.Sleep(time.Millisecond)
		}
		converge := time.Since(convergeStart)
		stop.Store(true)

		var max, sum uint64
		var n int
		for s := range samples {
			if s > max {
				max = s
			}
			sum += s
			n++
		}
		rateLabel := "unthrottled"
		if rate > 0 {
			rateLabel = fmt.Sprintf("%d/s", rate)
		}
		fmt.Printf("RATE %-12s achieved %.0f txn/s  mean-lag %d B  max-lag %d B  drain-after-stop %v\n",
			rateLabel, float64(txns)/elapsed.Seconds(), sum/uint64(n), max, converge)

		fol.Stop()
		srv.Close()
	}
}
