package main

import (
	"runtime"
	"sync"
	"time"
)

// Host speed. The 2-vCPU KVM guests this benchmark was built on run the
// simulator at a speed that drifts by up to 3x over seconds to minutes
// while the guest sees no steal time: contention below the guest, which
// slows every vCPU of the guest alike. A window's raw rates and latencies
// move with the share of it that fell in a slow period, so two runs of the
// same code can differ by more than any useful regression bound.
//
// The benchmark therefore measures the host's speed alongside the load and
// reports its host-time metrics at a fixed reference speed. Each closed-loop
// client, between calls, runs a fixed calibration chunk once per
// calibrateEvery, timed by its thread's CPU clock (so Go scheduling of the
// process's other goroutines is not counted). The chunk is the benchmark's
// own code, not the repository's, so a change to the system under test
// does not change the work it does. It has two parts of about equal time:
// random updates of a 65,536-entry map (about 2 MB, the cache-bound part of
// serving), and a miniature SIMD machine (16 threads issuing round-robin,
// 16-PE register rows, flag masks and max reductions, the shape of the
// simulator's inner loops). Of the kernels tried (SHA-256, sorting, pointer
// chasing, a switch-dispatched interpreter, and these), this pair tracked
// the four workloads' throughput best overall: it slowed by about as much
// as they did when the host slowed.
//
// A phase's host speed is its chunks per CPU second; a rate measured in
// the phase is multiplied, and a time divided, by refSpeed over that speed.
// The chunk shares caches with the system under test, so a change that
// relieves the caches also speeds the chunk and is reported slightly
// smaller than it is, never larger.

const (
	// calibrateEvery is how often each client runs a chunk: under 4 ms of
	// CPU every 200 ms, under 2 % of the load.
	calibrateEvery = 200 * time.Millisecond
	// refSpeed is the reference host speed in chunks per CPU second: about
	// the median speed of the 2-vCPU guests the bounds were measured on.
	refSpeed = 270.0
	// burstChunks is how many chunks each calibrator runs right before a
	// set-up, so even a set-up shorter than calibrateEvery has a speed.
	burstChunks = 4

	calMapKeys  = 1 << 16
	calMapOps   = 20000
	calSIMDOps  = 120000
	calThreads  = 16
	calPEs      = 16
	calRegs     = 8
	calLoopTrip = 50
)

// calibrator is one client's calibration state. Everything a chunk touches
// is built once, so a chunk allocates nothing.
type calibrator struct {
	m    map[uint64]uint64
	x    uint64    // xorshift state
	last time.Time // end of the last chunk

	// The miniature SIMD machine's per-thread state.
	pc    [calThreads]int
	preg  [calThreads][calRegs][calPEs]int64
	sreg  [calThreads][calRegs]int64
	flags [calThreads]uint16
}

// Operations of the miniature SIMD machine.
const (
	simdAdd     = iota // preg[d] = preg[a] + preg[b] + PE index
	simdCompare        // flags = preg[a] > sreg[b], per PE
	simdMaskSub        // preg[d] -= 3 where flagged
	simdMax            // sreg[d] = max over PEs of preg[a]
	simdScalar         // sreg[d] = sreg[a] + sreg[b]
	simdLoop           // count sreg[7] down; branch to b while it is positive
)

type simdOp struct{ op, d, a, b uint8 }

// simdLoopProgram is a reduction loop of the kind the workloads run: ALU
// rows, an associative search, a masked update, reductions feeding scalars.
var simdLoopProgram = [...]simdOp{
	{simdAdd, 1, 2, 3}, {simdCompare, 0, 1, 2}, {simdMaskSub, 1, 0, 0},
	{simdMax, 3, 1, 0}, {simdScalar, 4, 4, 3}, {simdAdd, 2, 1, 5},
	{simdMax, 5, 2, 0}, {simdScalar, 6, 6, 5}, {simdLoop, 0, 0, 0},
}

func newCalibrator(seed uint64) *calibrator {
	c := &calibrator{m: make(map[uint64]uint64, calMapKeys), x: seed | 1}
	for k := uint64(0); k < calMapKeys; k++ {
		c.m[k] = k
	}
	return c
}

func (c *calibrator) next() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

// chunk runs one fixed unit of calibration work and returns the CPU time
// its thread spent on it.
func (c *calibrator) chunk() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUTime()
	for i := 0; i < calMapOps; i++ {
		k := c.next()
		c.m[k&(calMapKeys-1)] += k
	}
	c.simd(calSIMDOps)
	return threadCPUTime() - t0
}

// simd issues steps instructions of the miniature SIMD machine, one per
// thread in turn.
func (c *calibrator) simd(steps int) {
	for s := 0; s < steps; s++ {
		t := s % calThreads
		pc := c.pc[t]
		in := simdLoopProgram[pc]
		p, r := &c.preg[t], &c.sreg[t]
		switch in.op {
		case simdAdd:
			for pe := range p[in.d] {
				p[in.d][pe] = p[in.a][pe] + p[in.b][pe] + int64(pe)
			}
		case simdCompare:
			var f uint16
			for pe, v := range p[in.a] {
				if v > r[in.b] {
					f |= 1 << pe
				}
			}
			c.flags[t] = f
		case simdMaskSub:
			for pe := range p[in.d] {
				if c.flags[t]&(1<<pe) != 0 {
					p[in.d][pe] -= 3
				}
			}
		case simdMax:
			m := p[in.a][0]
			for _, v := range p[in.a][1:] {
				m = max(m, v)
			}
			r[in.d] = m
		case simdScalar:
			r[in.d] = r[in.a] + r[in.b]
		case simdLoop:
			if r[7]--; r[7] > 0 {
				c.pc[t] = int(in.b)
				continue
			}
			r[7] = calLoopTrip + int64(t)
		}
		c.pc[t] = (pc + 1) % len(simdLoopProgram)
	}
}

// speedSample is one chunk: when it ended and the CPU time it took.
type speedSample struct {
	at  time.Time
	cpu time.Duration
}

// hostMeter holds one calibrator per client and every chunk they ran.
type hostMeter struct {
	cals    [clients]*calibrator
	mu      sync.Mutex
	samples []speedSample
}

func newHostMeter() *hostMeter {
	m := &hostMeter{}
	for i := range m.cals {
		m.cals[i] = newCalibrator(uint64(i + 1))
	}
	return m
}

// run runs a chunk on client w's calibrator and records it (unless the
// thread's CPU clock could not be read).
func (m *hostMeter) run(w int) {
	c := m.cals[w]
	d := c.chunk()
	c.last = time.Now()
	if d <= 0 {
		return
	}
	m.mu.Lock()
	m.samples = append(m.samples, speedSample{c.last, d})
	m.mu.Unlock()
}

// tick is called by client w between calls: it runs a chunk when
// calibrateEvery has passed since the client's last one.
func (m *hostMeter) tick(w int) {
	if time.Since(m.cals[w].last) >= calibrateEvery {
		m.run(w)
	}
}

// burst runs burstChunks chunks on every calibrator at once, as the load
// would keep every CPU busy.
func (m *hostMeter) burst() {
	var wg sync.WaitGroup
	for w := range m.cals {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < burstChunks; i++ {
				m.run(w)
			}
		}(w)
	}
	wg.Wait()
}

// between returns the chunks that ended in [from, to] and their CPU time.
func (m *hostMeter) between(from, to time.Time) (chunks int, cpu time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			chunks++
			cpu += s.cpu
		}
	}
	return chunks, cpu
}

// hostSpeed is chunks per CPU second, or 0 without chunks.
func hostSpeed(chunks int, cpu time.Duration) float64 {
	if chunks == 0 || cpu <= 0 {
		return 0
	}
	return float64(chunks) / cpu.Seconds()
}

// slowdown is how many times slower than the reference the host ran at
// speed: a measured time is divided by it and a rate multiplied. Without a
// measurement it is 1.
func slowdown(speed float64) float64 {
	if speed <= 0 {
		return 1
	}
	return refSpeed / speed
}
