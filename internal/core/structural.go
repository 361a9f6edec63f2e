package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/network"
)

// Structural co-simulation: when Config.StructuralNetworks is set, every
// reduction instruction is also pushed through the structural pipelined
// network model of internal/network (network.Bank: the modal trees and the
// resolver), advanced one clock per simulated cycle. Each emerging result is
// checked against the value the machine delivers for that instruction
// (machine.Reduce) and against the modeled latency; any mismatch aborts the
// simulation with an error. This cross-validates the machine's fold kernels
// against the register-by-register hardware model, and the instruction-level
// timing constants (b, r) against the pipeline depths they were derived from.

// expectedResult is a value the structural network must produce.
type expectedResult struct {
	due   int64 // exact cycle the result must emerge
	value int64 // machine.Reduce's value; RFIRST's is the winning PE
	desc  string
}

// structState holds the co-simulation state.
type structState struct {
	bank     *network.Bank
	expected map[int64]expectedResult // keyed by tag
	nextTag  int64
}

func newStructState(pes, arity int, width uint) *structState {
	return &structState{
		bank:     network.NewBank(pes, arity, width),
		expected: make(map[int64]expectedResult),
	}
}

// pushReduction gathers the operands of reduction d issuing this cycle for
// thread tid, starts it through the structural network, and records the
// value the machine delivers for it. Must be called before the machine
// executes d (RFIRST overwrites flag state).
func (e *engine) pushReduction(tid int, d *isa.Decoded) {
	st := e.structural
	pes := e.cfg.Machine.PEs
	in := d.Inst

	maskVec := make([]bool, pes)
	for pe := 0; pe < pes; pe++ {
		maskVec[pe] = e.lead.Flag(tid, pe, in.Mask)
	}
	tag := st.nextTag
	st.nextTag++
	switch d.Reduce {
	case isa.ReduceCount, isa.ReduceAny, isa.ReduceFirst:
		flags := make([]bool, pes)
		for pe := 0; pe < pes; pe++ {
			flags[pe] = e.lead.Flag(tid, pe, in.Ra)
		}
		st.bank.PushFlags(d.Reduce, tag, flags, maskVec)
	default:
		vals := make([]int64, pes)
		for pe := 0; pe < pes; pe++ {
			vals[pe] = e.lead.Parallel(tid, pe, in.Ra)
		}
		st.bank.PushValues(d.Reduce, tag, vals, maskVec)
	}
	st.expected[tag] = expectedResult{
		due:   e.cycle + int64(st.bank.Latency()),
		value: e.lead.Reduce(tid, d),
		desc:  fmt.Sprintf("t%d %v @%d", tid, in, e.cycle),
	}
}

// stepStructural advances the network bank one cycle and checks everything
// that emerged.
func (e *engine) stepStructural() error {
	st := e.structural
	for _, res := range st.bank.Step() {
		exp, ok := st.expected[res.Tag]
		if !ok {
			return fmt.Errorf("core: structural network produced untracked result (tag %d, kind %d)", res.Tag, res.Kind)
		}
		delete(st.expected, res.Tag)
		if e.cycle != exp.due {
			return fmt.Errorf("core: %s emerged from the structural network at cycle %d, modeled %d", exp.desc, e.cycle, exp.due)
		}
		got := res.Value
		if res.Kind == isa.ReduceFirst {
			var err error
			if got, err = winner(res.Vector); err != nil {
				return fmt.Errorf("core: %s: %v", exp.desc, err)
			}
		}
		if got != exp.value {
			return fmt.Errorf("core: %s: structural result %d, machine %d", exp.desc, got, exp.value)
		}
	}
	return nil
}

// structuralDrained reports whether all in-flight structural results have
// been checked (consulted at the end of Run).
func (e *engine) structuralDrained() error {
	if e.structural == nil || len(e.structural.expected) == 0 {
		return nil
	}
	return fmt.Errorf("core: %d reduction(s) never emerged from the structural network", len(e.structural.expected))
}

// winner decodes the resolver's one-hot output into the winning PE, or the
// PE count when no bit is set.
func winner(vec []bool) (int64, error) {
	w := int64(len(vec))
	for i, b := range vec {
		if !b {
			continue
		}
		if w != int64(len(vec)) {
			return 0, fmt.Errorf("resolver output sets PEs %d and %d", w, i)
		}
		w = int64(i)
	}
	return w, nil
}
