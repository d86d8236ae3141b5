//go:build linux

package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// dataSync is the raw device force the WAL uses on this platform.
func dataSync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }

type cpuMask [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t

func setAffinity(tid int, m *cpuMask) {
	// Best effort: a thread that exited meanwhile, or a kernel that refuses,
	// leaves the phase unpinned, which only makes its tail noisier.
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
}

// cpuTimes returns the jiffies the machine's CPUs spent stolen by the
// hypervisor and in total since boot (/proc/stat); zeros when unreadable.
func cpuTimes() (stolen, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil || i > 8 { // "cpu", then user..steal; guest time is already in user
			continue
		}
		total += v
		if i == 8 {
			stolen = v
		}
	}
	return stolen, total
}

// allowedCPUs lists the processors the process may run on.
func allowedCPUs() []int {
	var all cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); errno != 0 {
		return nil
	}
	var cpus []int
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if all[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

func maskOf(cpus []int) *cpuMask {
	var m cpuMask
	for _, cpu := range cpus {
		m[cpu/64] |= 1 << (cpu % 64)
	}
	return &m
}

// splitCPUs gives the calling thread (which must be locked to its
// goroutine) the first CPU the process may run on and confines every
// other thread of the process to the remaining CPUs; restore undoes it.
// The open-loop generator busy-waits, and a program thread the kernel
// wakes onto the generator's CPU waits out a scheduler tick behind it:
// unpinned, that is 1 % of notifications arriving 1-3 ms late, i.e. the
// whole p99. mine is the calling thread's CPU, -1 when nothing was split.
func splitCPUs() (mine int, restore func()) {
	all := allowedCPUs()
	if len(all) < 2 {
		return -1, func() {} // one CPU: nothing to split
	}
	apply := func(self, others *cpuMask) {
		me := syscall.Gettid()
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if tid == me {
				setAffinity(tid, self)
			} else {
				setAffinity(tid, others)
			}
		}
	}
	apply(maskOf(all[:1]), maskOf(all[1:]))
	return all[0], func() { apply(maskOf(all), maskOf(all)) }
}

// awake keeps the processors from idling for the length of a run: one
// child process per CPU, pinned to it, busy-looping under SCHED_IDLE, the
// policy that runs a thread only while nothing else wants the CPU. On this
// sandbox an idle virtual CPU is halted, and how long the host takes to
// run it again, and at what clock, depends on what the host's other guests
// are doing; README.md, "Keeping the sandbox out of the numbers", has what
// that does to the workloads made of wake-ups, measured with and without.
type awake struct {
	byCPU map[int]spinner
}

type spinner struct {
	cmd *exec.Cmd
	in  io.Closer // the child exits when this closes
}

func keepAwake() *awake {
	self, err := os.Executable()
	if err != nil {
		return nil
	}
	a := &awake{byCPU: map[int]spinner{}}
	for _, cpu := range allowedCPUs() {
		cmd := exec.Command(self, spinArg, strconv.Itoa(cpu))
		// A pipe the child reads to its end: it cannot outlive the
		// benchmark, whatever ends the benchmark.
		in, err := cmd.StdinPipe()
		if err != nil {
			continue
		}
		if err := cmd.Start(); err != nil {
			continue
		}
		a.byCPU[cpu] = spinner{cmd, in}
	}
	return a
}

// release stops the loop on one CPU (for a thread of the benchmark's own
// that busy-waits there) and waits until its process has ended.
func (a *awake) release(cpu int) {
	if a == nil {
		return
	}
	if sp, ok := a.byCPU[cpu]; ok {
		_ = sp.in.Close()
		_ = sp.cmd.Wait()
		delete(a.byCPU, cpu)
	}
}

func (a *awake) releaseAll() {
	if a == nil {
		return
	}
	for cpu := range a.byCPU {
		a.release(cpu)
	}
}

// spin is the child process keepAwake starts. It does not loop unless it
// got both the CPU and the idle policy: at normal priority it would take
// the CPU from the program under test.
func spin(cpu int) {
	runtime.LockOSThread()
	const schedIdle = 5
	var param int32 // struct sched_param{sched_priority: 0}
	_, _, e1 := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(cpuMask{}), uintptr(unsafe.Pointer(maskOf([]int{cpu}))))
	_, _, e2 := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	if e1 != 0 || e2 != 0 {
		os.Exit(3)
	}
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
	}
}
