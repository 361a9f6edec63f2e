package progs

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
)

// MachineConfig derives the machine configuration an instance needs at a
// given PE count and hardware thread count.
func (ins Instance) MachineConfig(pes, threads int) machine.Config {
	if threads < ins.Threads {
		threads = ins.Threads
	}
	if threads < 1 {
		threads = 1
	}
	localWords := 1024
	for _, row := range ins.LocalMem {
		if len(row) > localWords {
			localWords = len(row)
		}
	}
	return machine.Config{
		PEs:           pes,
		Threads:       threads,
		Width:         ins.Width,
		LocalMemWords: localWords,
	}
}

// load initializes a machine's memories from the instance.
func (ins Instance) load(m *machine.Machine) error {
	if err := m.LoadLocalMem(ins.LocalMem); err != nil {
		return err
	}
	if err := m.LoadScalarMem(ins.ScalarMem); err != nil {
		return err
	}
	return nil
}

const runLimit = 50_000_000

// model is an execution model an instance runs on: the multithreaded core
// or one of the baselines, each over one machine.
type model[R any] interface {
	Machine() *machine.Machine
	Run(maxCycles int64) (R, error)
}

// run assembles the instance, builds a model over the program, loads the
// memories, runs to completion, and verifies the result.
func run[R any, M model[R]](ins Instance, build func([]isa.Inst) (M, error)) (R, error) {
	var zero R
	prog, err := asm.Assemble(ins.Source)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", ins.Name, err)
	}
	m, err := build(prog.Insts)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if err := ins.load(m.Machine()); err != nil {
		return zero, fmt.Errorf("%s: %w", ins.Name, err)
	}
	res, err := m.Run(runLimit)
	if err != nil {
		return res, fmt.Errorf("%s: %w", ins.Name, err)
	}
	return res, ins.Check(m.Machine())
}

// runCore runs the instance on the fine-grain multithreaded core.
func (ins Instance) runCore(cfg core.Config) (core.Stats, error) {
	return run[core.Stats](ins, func(prog []isa.Inst) (*core.Processor, error) { return core.New(cfg, prog) })
}

// RunCore executes the instance on the fine-grain multithreaded core and
// verifies the result.
func (ins Instance) RunCore(pes, threads, arity int) (core.Stats, error) {
	return ins.runCore(core.Config{Machine: ins.MachineConfig(pes, threads), Arity: arity})
}

// RunCoreStructural is RunCore with structural network co-simulation
// enabled: every reduction is additionally pushed through the pipelined
// tree models and checked for value and latency.
func (ins Instance) RunCoreStructural(pes, threads, arity int) (core.Stats, error) {
	return ins.runCore(core.Config{
		Machine:            ins.MachineConfig(pes, threads),
		Arity:              arity,
		StructuralNetworks: true,
	})
}

// RunNonPipelined executes the instance on the non-pipelined baseline and
// verifies the result. Instances requiring multithreading are rejected.
func (ins Instance) RunNonPipelined(pes int) (baseline.Result, error) {
	if ins.Threads > 1 {
		return baseline.Result{}, fmt.Errorf("%s: needs %d threads; non-pipelined model is single-threaded", ins.Name, ins.Threads)
	}
	return run[baseline.Result](ins, func(prog []isa.Inst) (*baseline.NonPipelined, error) {
		return baseline.NewNonPipelined(ins.MachineConfig(pes, 1), prog)
	})
}

// RunCoarseGrain executes the instance on the coarse-grain multithreaded
// baseline and verifies the result.
func (ins Instance) RunCoarseGrain(pes, threads, arity int) (baseline.Result, error) {
	return run[baseline.Result](ins, func(prog []isa.Inst) (*baseline.CoarseGrain, error) {
		return baseline.NewCoarseGrain(ins.MachineConfig(pes, threads), arity, prog)
	})
}
