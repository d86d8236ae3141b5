//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark's own when
// keepAwake starts its children.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == spinArg {
		if cpu, err := strconv.Atoi(os.Args[2]); err == nil {
			spin(cpu)
		}
		os.Exit(3)
	}
	os.Exit(m.Run())
}

// schedPolicy reads a process's scheduling policy from /proc/<pid>/stat.
func schedPolicy(pid int) (int, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; policy is field 41 of the line.
	_, rest, _ := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if len(f) < 39 {
		return 0, fmt.Errorf("short stat line")
	}
	return strconv.Atoi(f[38])
}

func TestKeepAwakeChildrenIdleAndStop(t *testing.T) {
	a := keepAwake()
	if a == nil || len(a.byCPU) == 0 {
		t.Skip("no keep-awake children on this machine")
	}
	var pids []int
	for cpu, sp := range a.byCPU {
		pid := sp.cmd.Process.Pid
		pids = append(pids, pid)
		// The child sets its policy first thing; give it a moment to get there.
		deadline := time.Now().Add(5 * time.Second)
		for {
			policy, err := schedPolicy(pid)
			if err == nil && policy == 5 {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("child for CPU %d: policy %d (%v), want 5 (SCHED_IDLE)", cpu, policy, err)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	a.releaseAll()
	if len(a.byCPU) != 0 {
		t.Errorf("%d children still registered after releaseAll", len(a.byCPU))
	}
	for _, pid := range pids {
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
			t.Errorf("child %d still exists after releaseAll", pid)
		}
	}
}
