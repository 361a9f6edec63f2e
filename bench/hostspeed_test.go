package main

import (
	"math"
	"testing"
	"time"
)

// TestHostMeter checks the host-speed bookkeeping: a chunk counts in the
// interval it ended in, a phase without chunks is not rescaled, and a chunk
// allocates nothing (so it adds no garbage to the window it measures).
func TestHostMeter(t *testing.T) {
	m := newHostMeter()
	if k := slowdown(hostSpeed(m.between(time.Now().Add(-time.Hour), time.Now()))); k != 1 {
		t.Errorf("slowdown without chunks = %g, want 1", k)
	}
	from := time.Now()
	m.burst()
	to := time.Now()
	if n, cpu := m.between(from, to); n != clients*burstChunks || cpu <= 0 {
		t.Errorf("burst: %d chunks in %v, want %d in > 0", n, cpu, clients*burstChunks)
	}
	if n, _ := m.between(to.Add(time.Nanosecond), to.Add(time.Hour)); n != 0 {
		t.Errorf("%d chunks after the burst ended, want 0", n)
	}
	if k := slowdown(hostSpeed(int(refSpeed), 2*time.Second)); math.Abs(k-2) > 1e-9 {
		t.Errorf("slowdown at half the reference speed = %g, want 2", k)
	}
	if allocs := testing.AllocsPerRun(3, func() { m.cals[0].chunk() }); allocs != 0 {
		t.Errorf("chunk allocates %g times, want 0", allocs)
	}
}
