package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID of <time.h>.
const clockThreadCPUTimeID = 3

// threadCPUTime is the CPU time of the calling thread, or 0 if the clock
// cannot be read. The caller locks its goroutine to the thread while it
// measures.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
