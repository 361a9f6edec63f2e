// Package pipeline implements the timing model of the MTASC split pipeline
// (Figure 1 of the paper) and its hazard rules (section 4.2).
//
// The pipeline has a common front end (IF, ID, SR) and then splits:
//
//	scalar:    SR, EX, MA, WB                       (control unit)
//	parallel:  SR, B1..Bb, PR, EX, MA, WB           (broadcast net + PEs)
//	reduction: SR, B1..Bb, PR, R1..Rr, WB           (both networks)
//
// where b = ceil(log_k p) broadcast stages and r = ceil(log2 p) reduction
// stages. "Issue" means entering SR; one instruction issues per cycle from
// one hardware thread. This package computes, for any instruction issued at
// cycle t, when each of its results becomes forwardable and when each of its
// operands is needed, which together yield the three hazard classes of the
// paper:
//
//   - broadcast hazards (scalar result -> parallel consumer) are fully
//     covered by EX-to-B1 forwarding: zero stall cycles;
//   - reduction hazards (reduction result -> scalar consumer) stall b+r
//     cycles back to back;
//   - broadcast-reduction hazards (reduction result -> parallel consumer)
//     also stall b+r cycles.
package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/network"
)

// Params are the timing parameters derived from the machine configuration.
type Params struct {
	B int // broadcast network latency (pipeline stages)
	R int // reduction network latency (pipeline stages)

	// Multiplier: pipelined multipliers add MulLatency-1 extra result-delay
	// cycles and accept one op per cycle; sequential multipliers occupy the
	// unit for MulLatency cycles (structural hazard, section 6.2).
	MulLatency int
	SeqMul     bool

	// Divider: always sequential (section 6.2), occupies the unit for
	// DivLatency cycles.
	DivLatency int

	// Front-end redirect costs, in extra issue-slot cycles for the same
	// thread (the classic 5-stage numbers fall out of the IF/ID/SR front
	// end: decode-stage redirect costs 1, execute-stage redirect costs 3).
	DecodeRedirect int // J, JAL: target known in ID
	ExecRedirect   int // taken branches, JR: resolved in EX

	// SpawnStart is the delay from TSPAWN issue until the child thread's
	// first instruction can issue (its IF begins after the spawn executes).
	SpawnStart int
}

// DefaultParams returns the timing parameters for a machine with p PEs,
// broadcast tree arity k, and the given data width. The divider retires one
// bit per cycle (Falkoff-style sequential unit); the multiplier defaults to
// the fully pipelined hard-block implementation with a 2-cycle latency.
func DefaultParams(p, k int, width uint) Params {
	return Params{
		B:              network.BroadcastLatency(p, k),
		R:              network.ReductionLatency(p),
		MulLatency:     2,
		SeqMul:         false,
		DivLatency:     int(width),
		DecodeRedirect: 1,
		ExecRedirect:   3,
		SpawnStart:     3,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.B < 1 || p.R < 1 {
		return fmt.Errorf("pipeline: network latencies must be >= 1, got b=%d r=%d", p.B, p.R)
	}
	if p.MulLatency < 1 || p.DivLatency < 1 {
		return fmt.Errorf("pipeline: unit latencies must be >= 1")
	}
	return nil
}

// Location says where a result value lives.
type Location uint8

const (
	// LocCU values live in the control unit (scalar register file).
	LocCU Location = iota
	// LocPE values live in the PE array (parallel or flag register files).
	LocPE
)

// ResultReady returns where and when the result of in, issued at cycle t,
// becomes available to a forwarding consumer. ok is false when the
// instruction writes no register.
//
// Ready times (start-of-cycle at which a consumer stage may use the value):
//
//	scalar ALU             -> CU at t+2   (end of EX)
//	scalar load, TRECV,
//	TSPAWN                 -> CU at t+3   (end of MA)
//	scalar MUL (pipelined) -> CU at t+1+MulLatency
//	scalar DIV/MOD         -> CU at t+1+DivLatency
//	parallel ALU/flag op   -> PE at t+B+3 (end of PE EX)
//	parallel load          -> PE at t+B+4 (end of PE MA)
//	parallel MUL/DIV       -> PE at t+B+2+unit latency
//	reduction (scalar rd)  -> CU at t+B+R+2 (end of last R stage / WB)
//	RFIRST (parallel rd)   -> PE at t+B+R+2 (resolver output written back)
//
// The dispatch runs entirely on the micro-op's precomputed fields; nothing
// is re-derived from the opcode.
func (p Params) ResultReady(d *isa.Decoded, t int64) (Location, int64, bool) {
	if !d.HasWrite {
		return LocCU, 0, false
	}
	info := d.Info
	switch d.Class {
	case isa.ClassScalar:
		switch {
		case info.IsMul:
			return LocCU, t + 1 + int64(p.MulLatency), true
		case info.IsDiv:
			return LocCU, t + 1 + int64(p.DivLatency), true
		case info.IsLoad || d.Thread == isa.ThreadOpRecv || d.Thread == isa.ThreadOpSpawn:
			return LocCU, t + 3, true
		default:
			return LocCU, t + 2, true
		}
	case isa.ClassParallel:
		base := t + int64(p.B) + 2 // PE EX stage cycle
		switch {
		case info.IsMul:
			return LocPE, base + int64(p.MulLatency), true
		case info.IsDiv:
			return LocPE, base + int64(p.DivLatency), true
		case info.IsLoad:
			return LocPE, base + 2, true
		default:
			return LocPE, base + 1, true
		}
	case isa.ClassReduction:
		ready := t + int64(p.B) + int64(p.R) + 2
		if d.Write.Kind == isa.KindFlag {
			return LocPE, ready, true // resolver: parallel result
		}
		return LocCU, ready, true
	}
	return LocCU, 0, false
}

// MinIssueForOperand returns the earliest issue cycle of a consumer of class
// consClass whose operand (held at loc, ready at readyAbs) it must read.
//
// Need times: scalar operands are read in SR and consumed in EX or B1, both
// one cycle after issue, so need = t+1. Parallel and flag operands are read
// in the PEs and consumed in the PE EX stage (or the first reduction stage),
// need = t+B+2.
func (p Params) MinIssueForOperand(consClass isa.Class, loc Location, readyAbs int64) int64 {
	switch loc {
	case LocCU:
		// Consumed as a scalar operand: EX (scalar consumers) or B1
		// (broadcast operand of parallel/reduction consumers), at t+1.
		return readyAbs - 1
	case LocPE:
		// Consumed inside the PEs at t+B+2 (EX or R1 input).
		return readyAbs - int64(p.B) - 2
	}
	panic("pipeline: unknown location")
}

// CompletionTime returns the cycle at which the instruction leaves the
// pipeline (its WB stage), used to compute total run time including drain.
func (p Params) CompletionTime(d *isa.Decoded, t int64) int64 {
	info := d.Info
	switch d.Class {
	case isa.ClassScalar:
		c := t + 3 // SR, EX, MA, WB
		if info.IsMul {
			c = t + 2 + int64(p.MulLatency)
		}
		if info.IsDiv {
			c = t + 2 + int64(p.DivLatency)
		}
		return c
	case isa.ClassParallel:
		c := t + int64(p.B) + 4 // SR, B1..Bb, PR, EX, MA, WB
		if info.IsMul {
			c = t + int64(p.B) + 3 + int64(p.MulLatency)
		}
		if info.IsDiv {
			c = t + int64(p.B) + 3 + int64(p.DivLatency)
		}
		return c
	case isa.ClassReduction:
		return t + int64(p.B) + int64(p.R) + 2 // SR, B1..Bb, PR, R1..Rr, WB
	}
	return t
}

// HazardKind classifies why an instruction could not issue earlier.
// The first three are the paper's hazard classes (section 4.2).
type HazardKind uint8

const (
	HazardNone HazardKind = iota
	// HazardBroadcast: a parallel instruction uses the result of an earlier
	// scalar instruction. Removed by EX->B1 forwarding (zero stall), except
	// for the load-use case.
	HazardBroadcast
	// HazardReduction: a scalar instruction uses the result of an earlier
	// reduction instruction (stalls up to b+r cycles).
	HazardReduction
	// HazardBroadcastReduction: a parallel instruction uses the result of
	// an earlier reduction instruction (stalls up to b+r cycles).
	HazardBroadcastReduction
	// HazardData: other register dependences (scalar->scalar load-use,
	// parallel->parallel, multiplier/divider result latency).
	HazardData
	// HazardStructural: the sequential multiplier or divider is busy.
	HazardStructural
	// HazardControl: redirect after a taken branch, jump, or thread start.
	HazardControl
	// HazardSync: blocked interthread operation (mailbox full/empty, join).
	HazardSync
	// HazardFetch: the instruction buffer had not yet been filled/decoded.
	HazardFetch

	numHazardKinds
)

// NumHazardKinds sizes per-kind counter arrays.
const NumHazardKinds = int(numHazardKinds)

var hazardNames = map[HazardKind]string{
	HazardNone:               "none",
	HazardBroadcast:          "broadcast",
	HazardReduction:          "reduction",
	HazardBroadcastReduction: "broadcast-reduction",
	HazardData:               "data",
	HazardStructural:         "structural",
	HazardControl:            "control",
	HazardSync:               "sync",
	HazardFetch:              "fetch",
}

func (h HazardKind) String() string {
	if s, ok := hazardNames[h]; ok {
		return s
	}
	return fmt.Sprintf("hazard(%d)", uint8(h))
}

// ClassifyDependence names the hazard class of a producer->consumer register
// dependence, per section 4.2.
func ClassifyDependence(prodClass, consClass isa.Class) HazardKind {
	switch {
	case prodClass == isa.ClassReduction && consClass == isa.ClassScalar:
		return HazardReduction
	case prodClass == isa.ClassReduction:
		return HazardBroadcastReduction
	case prodClass == isa.ClassScalar && consClass != isa.ClassScalar:
		return HazardBroadcast
	default:
		return HazardData
	}
}
