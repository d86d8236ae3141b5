// Command replserver runs one node of a Sentinel replication pair for the
// end-to-end failover smoke (scripts/repl_smoke.sh).
//
// Leader mode (-listen) opens a database serving its WAL to followers and
// drives a sequential load: one object per transaction, each bound to
// key-NNNNNN. After every successful commit the key is appended (and
// fsynced) to the expect file, so the file is always a prefix of the
// committed history even when the process is kill -9'd mid-load.
//
// Follower mode (-replica-of) opens a replica and waits. On SIGUSR1 it
// promotes itself and verifies the expect file against its own state: the
// keys it holds must form an exact contiguous prefix of the file — a hole
// (a missing key followed by a present one) is divergence, an empty prefix
// means nothing ever replicated. It then performs a post-promotion write
// and reads it back. Any violation exits nonzero.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	sentinel "repro"
)

const smokeClass = "SMOKE"

func main() {
	log.SetFlags(0)
	var (
		dir       = flag.String("dir", "", "data directory (created if missing)")
		listen    = flag.String("listen", "", "leader mode: address to serve the WAL on")
		replicaOf = flag.String("replica-of", "", "follower mode: leader's WAL address")
		load      = flag.Int("load", 400, "leader mode: number of keys to commit")
		pace      = flag.Duration("pace", 2*time.Millisecond, "leader mode: delay between commits")
		expect    = flag.String("expect", "", "expect file: written by the leader, verified by the follower")
	)
	flag.Parse()
	if *dir == "" || *expect == "" {
		log.Fatal("replserver: -dir and -expect are required")
	}
	if (*listen == "") == (*replicaOf == "") {
		log.Fatal("replserver: set exactly one of -listen (leader) or -replica-of (follower)")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatalf("replserver: %v", err)
	}
	if *listen != "" {
		runLeader(*dir, *listen, *expect, *load, *pace)
	} else {
		runFollower(*dir, *replicaOf, *expect)
	}
}

func runLeader(dir, listen, expect string, load int, pace time.Duration) {
	db, err := sentinel.Open(sentinel.Options{Dir: dir, PoolSize: 64, ReplAddr: listen})
	if err != nil {
		log.Fatalf("replserver: open leader: %v", err)
	}
	if _, err := db.DefineClass(smokeClass, "", false); err != nil {
		log.Fatalf("replserver: %v", err)
	}
	log.Printf("replserver: leader serving WAL on %s", db.ReplAddr())

	f, err := os.OpenFile(expect, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		log.Fatalf("replserver: %v", err)
	}
	for i := 1; i <= load; i++ {
		key := fmt.Sprintf("key-%06d", i)
		tx, err := db.Begin()
		if err != nil {
			log.Fatalf("replserver: begin: %v", err)
		}
		obj, err := db.New(tx, smokeClass, map[string]any{"seq": float64(i)})
		if err != nil {
			log.Fatalf("replserver: new: %v", err)
		}
		if err := db.Bind(tx, key, obj.OID); err != nil {
			log.Fatalf("replserver: bind: %v", err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatalf("replserver: commit %s: %v", key, err)
		}
		// Commit is durable before the key enters the file: the file never
		// promises more than the log holds.
		if _, err := fmt.Fprintln(f, key); err != nil {
			log.Fatalf("replserver: expect file: %v", err)
		}
		if err := f.Sync(); err != nil {
			log.Fatalf("replserver: expect file: %v", err)
		}
		time.Sleep(pace)
	}
	log.Printf("replserver: load complete (%d keys)", load)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	if err := db.Close(); err != nil {
		log.Fatalf("replserver: close: %v", err)
	}
	log.Print("replserver: leader shutdown clean")
}

func runFollower(dir, leaderAddr, expect string) {
	db, err := sentinel.Open(sentinel.Options{Dir: dir, PoolSize: 64, ReplicaOf: leaderAddr})
	if err != nil {
		log.Fatalf("replserver: open follower: %v", err)
	}
	if _, err := db.DefineClass(smokeClass, "", false); err != nil {
		log.Fatalf("replserver: %v", err)
	}
	log.Printf("replserver: following %s", leaderAddr)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	if sig := <-ch; sig != syscall.SIGUSR1 {
		if err := db.Close(); err != nil {
			log.Fatalf("replserver: close: %v", err)
		}
		log.Print("replserver: follower shutdown clean")
		return
	}

	stats, err := db.Promote()
	if err != nil {
		log.Fatalf("replserver: promote: %v", err)
	}
	log.Printf("replserver: promoted (aborted %d, %v)", stats.Aborted, stats.Elapsed)

	raw, err := os.ReadFile(expect)
	if err != nil {
		log.Fatalf("replserver: %v", err)
	}
	keys := strings.Fields(string(raw))
	tx, err := db.Begin()
	if err != nil {
		log.Fatalf("replserver: begin after promote: %v", err)
	}
	present, hole := 0, false
	for _, key := range keys {
		if _, err := db.Resolve(tx, key); err != nil {
			hole = true
			continue
		}
		if hole {
			log.Fatalf("replserver: divergence: %s present after a missing key", key)
		}
		present++
	}
	if err := tx.Commit(); err != nil {
		log.Fatalf("replserver: %v", err)
	}
	if present == 0 {
		log.Fatalf("replserver: nothing replicated (0 of %d keys)", len(keys))
	}

	wtx, err := db.Begin()
	if err != nil {
		log.Fatalf("replserver: %v", err)
	}
	obj, err := db.New(wtx, smokeClass, map[string]any{"seq": -1.0})
	if err != nil {
		log.Fatalf("replserver: post-promotion new: %v", err)
	}
	if err := db.Bind(wtx, "post-promote", obj.OID); err != nil {
		log.Fatalf("replserver: post-promotion bind: %v", err)
	}
	if err := wtx.Commit(); err != nil {
		log.Fatalf("replserver: post-promotion commit: %v", err)
	}
	rtx, err := db.Begin()
	if err != nil {
		log.Fatalf("replserver: %v", err)
	}
	if _, err := db.Resolve(rtx, "post-promote"); err != nil {
		log.Fatalf("replserver: post-promotion read-back: %v", err)
	}
	_ = rtx.Commit()

	if err := db.Close(); err != nil {
		log.Fatalf("replserver: close: %v", err)
	}
	log.Printf("replserver: promote verified, %d/%d replicated keys, post-promotion write ok",
		present, len(keys))
}
