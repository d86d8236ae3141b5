package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

func openLeader(t *testing.T) *storage.Store {
	t.Helper()
	st, err := storage.Open(storage.Options{Dir: t.TempDir(), PoolSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func openFollowerStore(t *testing.T) *storage.Store {
	t.Helper()
	st, err := storage.Open(storage.Options{Dir: t.TempDir(), PoolSize: 32, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// waitCaughtUp blocks until the follower has applied everything up to the
// leader's flushed end — the bounded-replica-lag assertion in its simplest
// form. It waits on the applied watermark, not the log end, which advances
// at ingest before the batch's effects are visible.
func waitCaughtUp(t *testing.T, leader, follower *storage.Store) {
	t.Helper()
	if err := leader.FlushLog(); err != nil {
		t.Fatal(err)
	}
	target := leader.LogFlushed()
	deadline := time.Now().Add(10 * time.Second)
	for follower.ReplApplied() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, leader flushed %d", follower.ReplApplied(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

func snapshotMap(t *testing.T, st *storage.Store) map[storage.RID]string {
	t.Helper()
	m := make(map[storage.RID]string)
	if err := st.ForEachRecord(func(rid storage.RID, data []byte) error {
		m[rid] = string(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

func mustWrite(t *testing.T, st *storage.Store, vals ...string) {
	t.Helper()
	txn, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if _, err := st.Insert(txn, 0, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(txn); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationConvergence(t *testing.T) {
	leader := openLeader(t)
	srv, err := NewServer(leader, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fst := openFollowerStore(t)
	f, err := StartFollower(fst, srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	for i := 0; i < 50; i++ {
		mustWrite(t, leader, fmt.Sprintf("rec-%d-a", i), fmt.Sprintf("rec-%d-b", i))
	}
	waitCaughtUp(t, leader, fst)

	lm, fm := snapshotMap(t, leader), snapshotMap(t, fst)
	if len(lm) != 100 || len(fm) != len(lm) {
		t.Fatalf("leader has %d records, follower %d (want 100)", len(lm), len(fm))
	}
	for rid, v := range lm {
		if fm[rid] != v {
			t.Fatalf("divergence at %v: leader %q, follower %q", rid, v, fm[rid])
		}
	}
	if srv.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1", srv.Sessions())
	}
	// The follower's acks raise the leader's retention floor. It counts a
	// batch as applied only after ReplIngest returns, so its counter can
	// trail ReplApplied: wait for it too.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ack, ok := srv.MinAck(); ok && ack >= leader.LogFlushed() && f.Applied() > 0 {
			break
		}
		if time.Now().After(deadline) {
			ack, ok := srv.MinAck()
			t.Fatalf("min ack stuck at %d (ok=%v), leader flushed %d, follower applied %d records",
				ack, ok, leader.LogFlushed(), f.Applied())
		}
		time.Sleep(time.Millisecond)
	}
	// Writes through a follower must be refused.
	if _, err := fst.Begin(); !errors.Is(err, storage.ErrFollowerReadOnly) {
		t.Fatalf("follower Begin: got %v, want ErrFollowerReadOnly", err)
	}
}

func TestFollowerReconnectsAfterLeaderRestartOfServer(t *testing.T) {
	leader := openLeader(t)
	srv, err := NewServer(leader, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var addr atomicString
	addr.Store(srv.Addr())

	fst := openFollowerStore(t)
	f, err := StartFollower(fst, addr.Load)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	mustWrite(t, leader, "before-restart")
	waitCaughtUp(t, leader, fst)

	// Drop the shipping endpoint; the follower must retry until a new
	// one appears, then resume from its own offset.
	srv.Close()
	mustWrite(t, leader, "while-down")
	srv2, err := NewServer(leader, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	addr.Store(srv2.Addr())

	waitCaughtUp(t, leader, fst)
	lm, fm := snapshotMap(t, leader), snapshotMap(t, fst)
	if len(fm) != len(lm) {
		t.Fatalf("after reconnect: leader %d records, follower %d", len(lm), len(fm))
	}
	if f.Reconnects() == 0 {
		t.Fatal("expected at least one reconnect")
	}
	if err := f.Err(); err != nil {
		t.Fatalf("follower failed: %v", err)
	}
}

func TestFollowerPromote(t *testing.T) {
	leader := openLeader(t)
	srv, err := NewServer(leader, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fst := openFollowerStore(t)
	f, err := StartFollower(fst, srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, leader, "a", "b", "c")
	waitCaughtUp(t, leader, fst)
	before := snapshotMap(t, fst)

	srv.Close() // leader "dies"
	stats, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if fst.IsFollower() {
		t.Fatal("store still in follower mode after promote")
	}
	if stats.Elapsed <= 0 {
		t.Fatal("promote reported no elapsed time")
	}
	// Everything replicated before the failover survived...
	after := snapshotMap(t, fst)
	if len(after) != len(before) {
		t.Fatalf("promotion lost records: %d -> %d", len(before), len(after))
	}
	// ...and the promoted store takes writes.
	mustWrite(t, fst, "post-promote")
	if got := len(snapshotMap(t, fst)); got != len(before)+1 {
		t.Fatalf("post-promote write missing: %d records, want %d", got, len(before)+1)
	}
	// A second promote is an error.
	if _, err := fst.Promote(); !errors.Is(err, storage.ErrNotFollower) {
		t.Fatalf("double promote: got %v, want ErrNotFollower", err)
	}
}

func TestDivergedFollowerRefused(t *testing.T) {
	// A store with its own (leader) history, reopened as a follower of an
	// empty leader, is ahead of the leader's log: the handshake must
	// refuse it fatally rather than interleave two histories.
	dir := t.TempDir()
	st, err := storage.Open(storage.Options{Dir: dir, PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, st, "own-history")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fst, err := storage.Open(storage.Options{Dir: dir, PoolSize: 16, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()

	leader := openLeader(t)
	srv, err := NewServer(leader, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f, err := StartFollower(fst, srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("refused follower did not stop")
	}
	if err := f.Err(); !errors.Is(err, ErrRefused) {
		t.Fatalf("diverged follower: got %v, want ErrRefused", err)
	}
}

// atomicString is a tiny helper for swapping the leader address under the
// follower's addrFn.
type atomicString struct {
	mu sync.Mutex
	s  string
}

func (a *atomicString) Store(s string) { a.mu.Lock(); a.s = s; a.mu.Unlock() }
func (a *atomicString) Load() string   { a.mu.Lock(); defer a.mu.Unlock(); return a.s }

// A connected peer that never sends a hello (a health probe, a port scan)
// must not hold up Close — and with it Database.Close on a leader — until
// the hello timeout fires.
func TestServerCloseUnblocksSilentConn(t *testing.T) {
	srv, err := NewServer(openLeader(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Give the server time to accept and park in the hello read; Close is
	// fast either way, this only makes the test exercise the parked case.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	srv.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Server.Close took %v with a connection that never sent a hello", took)
	}
}

// TestQuietLeaderCommitReachesFollower: one commit on an otherwise idle
// leader becomes visible on the follower with no later write to push it
// out, and the leader's log is forced exactly once for it — the commit's
// own force. The commit record publishes the transaction, and the shipper
// ships on that force without forcing anything itself.
func TestQuietLeaderCommitReachesFollower(t *testing.T) {
	leader, err := storage.Open(storage.Options{Dir: t.TempDir(), PoolSize: 32, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv, err := NewServer(leader, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fst := openFollowerStore(t)
	f, err := StartFollower(fst, srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	mustWrite(t, leader, "warm-up")
	waitCaughtUp(t, leader, fst)

	_, _, _, fsyncs := leader.WALStats()
	txn, err := leader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := leader.Insert(txn, 0, []byte("quiet"))
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Commit(txn); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sn := fst.Snapshot()
		got, err := fst.ReadSnapshot(sn, rid)
		sn.Close()
		if err == nil && string(got) == "quiet" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit on a quiet leader never reached the follower: %q, %v", got, err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, _, now := leader.WALStats(); now != fsyncs+1 {
		t.Fatalf("leader forced its log %d times for one commit, want 1", now-fsyncs)
	}
}
