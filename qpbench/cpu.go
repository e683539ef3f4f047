package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU is the CPU time every thread of process pid has run so far
// (pid 0: this process), read from the kernel's per-process scheduler
// clock with nanosecond resolution. Time a thread spent waiting for a CPU,
// whether behind other processes or behind the hypervisor (steal), is not
// in it, which is why the benchmark's bounded timings are CPU time (scaled
// by the host probe, probe.go): on a shared host the wall clock of the
// same code moves far more with the neighbours' load.
func processCPU(pid int) (time.Duration, error) {
	// CLOCK_PROCESS_CPUTIME_ID for this process; for another one, the
	// clock id clock_getcpuclockid(3) makes: (^pid << 3) | CPUCLOCK_SCHED.
	clock := int64(2)
	if pid != 0 {
		clock = int64(^int32(pid))<<3 | 2
	}
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// selfCPU is processCPU(0); reading this process's own clock cannot fail.
func selfCPU() time.Duration {
	d, _ := processCPU(0)
	return d
}
