//go:build !linux

package main

import "time"

// threadCPUTime falls back to the wall clock where the thread CPU clock is
// not wired up; a chunk then also counts time other goroutines ran.
func threadCPUTime() time.Duration { return time.Duration(time.Now().UnixNano()) }
