//go:build !linux

package main

import "os"

// dataSync is the raw device force the WAL uses on this platform.
func dataSync(f *os.File) error { return f.Sync() }

// cpuTimes is not available here.
func cpuTimes() (stolen, total uint64) { return 0, 0 }

// splitCPUs is a no-op where thread affinity is not available.
func splitCPUs() (mine int, restore func()) { return -1, func() {} }

// awake (see os_linux.go) needs SCHED_IDLE; elsewhere the CPUs idle.
type awake struct{}

func keepAwake() *awake      { return nil }
func (a *awake) release(int) {}
func (a *awake) releaseAll() {}
func spin(int)               {}
