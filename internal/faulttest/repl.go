package faulttest

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/repl"
	"repro/internal/storage"
)

// The replication stack: a leader and a follower store wired over real
// TCP, the storage workload running on the leader while the follower
// applies the shipped WAL, and a seeded kill striking one side:
//
//   - leader killed, leader restarts: the follower reconnects to the
//     recovered leader and both must converge to identical record states;
//   - leader killed, follower promoted: the promoted store must satisfy
//     the workload's expectation and accept new writes;
//   - follower killed mid-apply: its store is reopened (running follower
//     recovery), follows again from its own offset, and must converge;
//   - nobody killed: plain convergence within the lag bound.
//
// Divergence checking: after convergence the leader's and follower's
// scans (snapshot and latest alike) and pages must be identical.

const (
	scenLeaderRestart = "leader-restart"
	scenLeaderPromote = "leader-promote"
	scenFollowerKill  = "follower-kill"
)

// Both stores share the process-global fault injector, so each side's kill
// points are ones the other side never passes through: the leader's are
// leaderPoints, and the leader neither ingests nor applies shipped records.
var replScenarios = []scenario{
	{"converge", nil},
	{scenLeaderRestart, leaderPoints},
	{scenLeaderPromote, leaderPoints},
	{scenFollowerKill, []killPoint{
		{point: faults.ReplApply, maxHit: 60},
		{point: faults.WALIngest, maxHit: 3},
	}},
}

// replStack is the leader/follower pair of one iteration; the workload
// runs on the leader.
type replStack struct {
	storeStack
	sch  Schedule
	dir  string
	srv  *repl.Server
	fst  *storage.Store
	fol  *repl.Follower
	addr atomic.Value // the (changing) leader address the follower dials
}

func openRepl(dir string, sch Schedule) (stack, error) {
	r := &replStack{sch: sch, dir: dir}
	if err := r.serve(); err != nil {
		return nil, err
	}
	if err := r.follow(); err != nil {
		return nil, err
	}
	// Let the session establish before writing: a connected session's ack
	// floor is what keeps workload checkpoints from pruning the log bytes
	// the follower has not pulled yet. (A follower bootstrapped after
	// pruning legitimately needs a full resync — not this harness's topic.)
	for waited := 0; !r.fol.Connected(); waited++ {
		if waited > 5000 {
			return nil, fmt.Errorf("follower never connected")
		}
		time.Sleep(time.Millisecond)
	}
	return r, nil
}

// serve opens the leader's directory, recovering what is there, and serves
// it on a fresh port.
func (r *replStack) serve() (err error) {
	if r.st, err = openStore(filepath.Join(r.dir, "leader"), r.sch, false); err != nil {
		return fmt.Errorf("open leader: %w", err)
	}
	if r.srv, err = repl.NewServer(r.st, "127.0.0.1:0"); err != nil {
		return fmt.Errorf("repl server: %w", err)
	}
	r.addr.Store(r.srv.Addr())
	return nil
}

// follow opens the follower's directory, running follower recovery, and
// follows the leader from the follower's own durable offset.
func (r *replStack) follow() (err error) {
	if r.fst, err = openStore(filepath.Join(r.dir, "follower"), r.sch, true); err != nil {
		return fmt.Errorf("open follower: %w", err)
	}
	leader := func() string { return r.addr.Load().(string) }
	if r.fol, err = repl.StartFollower(r.fst, leader); err != nil {
		return fmt.Errorf("start follower: %w", err)
	}
	return nil
}

// recover is how the replication stack comes back — by restarting,
// promoting or re-following rather than by reopening — and the stack to
// check is the pair, or the promoted follower.
func (r *replStack) recover(crashed bool, _ func() (stack, error)) (stack, bool, error) {
	if r.sch.Scenario == scenFollowerKill {
		// The kill strikes the follower's apply loop, concurrent with (or
		// after) the workload: leave the injector armed until the stream
		// either hits it or drains.
		err := r.waitShipped()
		if crashed = r.fol.Err() != nil; !crashed && err != nil {
			faults.Disarm()
			return nil, false, fmt.Errorf("follower neither crashed nor converged: %w", err)
		}
	}
	faults.Disarm()
	var err error
	switch {
	case !crashed:
		// The schedule never fired (or the class injects nothing): plain
		// convergence under the lag bound.
	case r.sch.Scenario == scenLeaderRestart:
		// The dead leader stops shipping and its directory is reopened —
		// recovery resolves every in-flight transaction. The follower is
		// still dialing; it must resume from its own offset and converge
		// on the recovered history.
		r.srv.Close()
		err = r.serve()
	case r.sch.Scenario == scenLeaderPromote:
		// The dead leader stays dead (abandoned, never closed): the follower
		// drains whatever reached the leader's disk, is promoted, and must
		// satisfy the workload's expectation on its own — then take writes
		// as the new leader.
		if err = r.waitShipped(); err == nil {
			r.srv.Close()
			if _, err = r.fol.Promote(); err == nil {
				return storeStack{r.fst}, true, nil
			}
		}
	case r.sch.Scenario == scenFollowerKill:
		// The follower's "process" died mid-apply: its store is abandoned
		// (unflushed ingest tail lost, apply mutex still held) and follows
		// again from what its directory recovers.
		r.fol.Stop()
		err = r.follow()
	}
	return r, crashed, err
}

// verify waits out the bounded lag, then checks leader and follower
// against exp and against each other.
func (r *replStack) verify(exp *Expectation) error {
	if err := r.waitShipped(); err != nil {
		return err
	}
	if err := r.storeStack.verify(exp); err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	if err := (storeStack{r.fst}).verify(exp); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	return verifyMirror(r.st, r.fst)
}

func (r *replStack) close() error {
	r.fol.Stop()
	r.srv.Close()
	return errors.Join(r.st.Close(), r.fst.Close())
}

// waitShipped blocks until the follower has fully applied everything up to
// the leader's flushed end — the bounded-replica-lag assertion, its bound
// generous because it covers reconnect backoff after a leader restart. It
// waits on the applied watermark, not the log end: ingest advances the log
// end before the batch's records have been applied, and verifying in that
// window would race the apply loop. The flush attempt is best-effort: a
// crashed (sealed) leader WAL keeps its flushed end, which is then exactly
// what the follower can ever receive.
func (r *replStack) waitShipped() error {
	_ = r.st.FlushLog()
	target := r.st.LogFlushed()
	deadline := time.Now().Add(30 * time.Second)
	for r.fst.ReplApplied() < target {
		if err := r.fol.Err(); err != nil {
			return fmt.Errorf("follower failed at lsn %d: %w", r.fst.ReplApplied(), err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica lag unbounded: follower applied %d, leader flushed %d",
				r.fst.ReplApplied(), target)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// verifyMirror checks a leader and its follower for equal snapshot and
// latest scans and equal pages, reporting each check that diverges.
func verifyMirror(ld, fst *storage.Store) error {
	ls, ll, err := scans(ld)
	if err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	fs, fl, err := scans(fst)
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	return errors.Join(sameRecords("divergence: leader and follower snapshot scan", ls, fs),
		sameRecords("divergence: leader and follower latest scan", ll, fl),
		storage.SamePages(ld, fst))
}
