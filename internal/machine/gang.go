// Gang lanes: the structure-of-arrays state plane for cross-job lockstep
// execution. A gang runs N same-program jobs through one decoded micro-op
// stream (internal/core.Gang); each job is one "lane" — a *Machine whose
// flat state files are contiguous sub-slices of planes shared by the whole
// gang. This is the register-major AoS→SoA transform applied one level up:
// where a single machine lays registers out [thread][reg][pe], the gang
// plane is [job][thread][reg][pe], so the per-micro-op lane loop streams
// one contiguous block per job instead of chasing N scattered heaps.
//
// Lanes reuse every functional semantic of Machine verbatim — ExecDecoded,
// the specialized fold kernels, the lowest-PE trap rule, Snapshot/Restore —
// because they ARE Machines; only the allocation strategy differs. Lanes
// always use the serial engine: gang parallelism is across jobs, not across
// PEs, and the paper-scale arrays the gang targets are far below the
// sharding threshold anyway.
package machine

import (
	"fmt"

	"repro/internal/isa"
)

// NewGangLanes builds n serial machines for one decoded program through
// the shared plane allocator (newLanes). Each lane behaves exactly like an
// independently constructed serial machine; the shared backing is
// invisible to it.
func NewGangLanes(cfg Config, dp *isa.DecodedProgram, n int) ([]*Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("machine: gang needs at least 1 lane, got %d", n)
	}
	// Gang lanes are serial by construction; Engine is architecturally
	// invisible, so overriding it here never changes results.
	cfg.Engine = EngineSerial
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newLanes(cfg, dp, n), nil
}

// newLanes is the one state-plane allocator: n machines for a validated
// configuration whose state files are contiguous sub-slices of shared
// per-kind planes, each at power-on (thread 0 active at PC 0). NewDecoded
// is its n = 1 case. Lanes are full-capacity three-index sub-slices, so an
// out-of-bounds write in one lane can never corrupt a neighbor.
func newLanes(cfg Config, dp *isa.DecodedProgram, n int) []*Machine {
	regL := cfg.Threads * cfg.PEs * isa.NumParallelRegs
	flagL := cfg.Threads * cfg.PEs * isa.NumFlagRegs
	localL := cfg.PEs * cfg.LocalMemWords
	scalarL := cfg.ScalarMemWords
	leafL := cfg.PEs

	pregs := make([]int64, n*regL)
	flags := make([]bool, n*flagL)
	locals := make([]int64, n*localL)
	scalars := make([]int64, n*scalarL)
	leaves := make([]int64, n*leafL)

	lanes := make([]*Machine, n)
	for j := range lanes {
		m := &Machine{cfg: cfg, dec: dp, prog: dp.Insts()}
		m.threads = make([]thread, cfg.Threads)
		m.pregs = pregs[j*regL : (j+1)*regL : (j+1)*regL]
		m.flags = flags[j*flagL : (j+1)*flagL : (j+1)*flagL]
		m.localMem = locals[j*localL : (j+1)*localL : (j+1)*localL]
		m.scalarMem = scalars[j*scalarL : (j+1)*scalarL : (j+1)*scalarL]
		m.leafBuf = leaves[j*leafL : (j+1)*leafL : (j+1)*leafL]
		m.initReduceTables()
		m.threads[0].state = ThreadActive
		lanes[j] = m
	}
	return lanes
}
