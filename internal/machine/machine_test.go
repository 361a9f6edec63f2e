package machine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
)

// newMachine builds a machine from assembly source with the given config.
func newMachine(t *testing.T, cfg Config, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, p.Insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) > 0 {
		img := make([]int64, len(p.Data))
		for i, w := range p.Data {
			img[i] = int64(w)
		}
		if err := m.LoadScalarMem(img); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// dec decodes one instruction for the tests that drive single
// instructions through ExecDecoded/BlockedDecoded.
func dec(in isa.Inst) *isa.Decoded {
	d, err := isa.DecodeInst(in)
	if err != nil {
		panic(err)
	}
	return &d
}

// run executes the machine to completion as a simple reference interpreter:
// round-robin over active, unblocked threads, one instruction each.
func run(t *testing.T, m *Machine) {
	t.Helper()
	const maxSteps = 1_000_000
	for steps := 0; !m.Halted(); steps++ {
		if steps > maxSteps {
			t.Fatal("program did not halt")
		}
		progress := false
		for tid := 0; tid < m.Config().Threads; tid++ {
			if !m.ThreadActive(tid) {
				continue
			}
			pc := m.PC(tid)
			if pc >= len(m.prog) {
				t.Fatalf("thread %d ran off the end of the program", tid)
			}
			in := m.prog[pc]
			if m.BlockedDecoded(tid, dec(in)) {
				continue
			}
			if _, err := m.ExecDecoded(tid, dec(in)); err != nil {
				t.Fatal(err)
			}
			progress = true
			if m.Halted() {
				return
			}
		}
		if !progress {
			t.Fatal("deadlock: no thread can make progress")
		}
	}
}

func cfg8(pes int) Config { return Config{PEs: pes, Threads: 4, Width: 8} }

func TestScalarALU(t *testing.T) {
	m := newMachine(t, cfg8(4), `
		li s1, 100
		li s2, 7
		add s3, s1, s2    ; 107
		sub s4, s1, s2    ; 93
		and s5, s1, s2    ; 4
		or  s6, s1, s2    ; 103
		xor s7, s1, s2    ; 99
		mul s8, s1, s2    ; 700 mod 256 = 188
		div s9, s1, s2    ; 14
		mod s10, s1, s2   ; 2
		slt s11, s2, s1   ; 1
		sltu s12, s1, s2  ; 0
		halt
	`)
	run(t, m)
	want := map[uint8]int64{3: 107, 4: 93, 5: 4, 6: 103, 7: 99, 8: 188, 9: 14, 10: 2, 11: 1, 12: 0}
	for r, v := range want {
		if got := m.Scalar(0, r); got != v {
			t.Errorf("s%d = %d, want %d", r, got, v)
		}
	}
}

func TestSignedArithmeticAtWidth8(t *testing.T) {
	m := newMachine(t, cfg8(1), `
		li s1, -10        ; pattern 246
		li s2, 3
		div s3, s1, s2    ; -3 -> 253
		mod s4, s1, s2    ; -1 -> 255
		slt s5, s1, s2    ; -10 < 3 -> 1
		sltu s6, s1, s2   ; 246 < 3 unsigned -> 0
		sra s7, s1, s2    ; -10 >> 3 = -2 -> 254
		srl s8, s1, s2    ; 246 >> 3 = 30
		halt
	`)
	run(t, m)
	want := map[uint8]int64{3: 253, 4: 255, 5: 1, 6: 0, 7: 254, 8: 30}
	for r, v := range want {
		if got := m.Scalar(0, r); got != v {
			t.Errorf("s%d = %d, want %d", r, got, v)
		}
	}
}

func TestDivideByZero(t *testing.T) {
	m := newMachine(t, cfg8(1), `
		li s1, 42
		div s2, s1, s0   ; -1 pattern = 255
		mod s3, s1, s0   ; dividend = 42
		halt
	`)
	run(t, m)
	if got := m.Scalar(0, 2); got != 255 {
		t.Errorf("div by zero = %d, want 255", got)
	}
	if got := m.Scalar(0, 3); got != 42 {
		t.Errorf("mod by zero = %d, want 42", got)
	}
}

func TestShiftBeyondWidth(t *testing.T) {
	m := newMachine(t, cfg8(1), `
		li s1, 0xff
		li s2, 9
		sll s3, s1, s2    ; shift >= 8 -> 0
		srl s4, s1, s2    ; 0
		li s5, -1
		sra s6, s5, s2    ; sign fill -> 255
		halt
	`)
	run(t, m)
	if got := m.Scalar(0, 3); got != 0 {
		t.Errorf("sll overshift = %d", got)
	}
	if got := m.Scalar(0, 4); got != 0 {
		t.Errorf("srl overshift = %d", got)
	}
	if got := m.Scalar(0, 6); got != 255 {
		t.Errorf("sra overshift = %d, want 255", got)
	}
}

func TestHardwiredRegisters(t *testing.T) {
	m := newMachine(t, cfg8(4), `
		li s0, 99         ; dropped
		add s1, s0, s0    ; 0
		pli p0, 55        ; dropped
		pmov p1, p0       ; 0
		fclr f0           ; dropped: f0 stays 1
		pli p2, 11 ?f0    ; executes on all PEs
		halt
	`)
	run(t, m)
	if got := m.Scalar(0, 1); got != 0 {
		t.Errorf("s0 not hardwired: %d", got)
	}
	for pe := 0; pe < 4; pe++ {
		if got := m.Parallel(0, pe, 1); got != 0 {
			t.Errorf("p0 not hardwired at PE %d: %d", pe, got)
		}
		if got := m.Parallel(0, pe, 2); got != 11 {
			t.Errorf("f0 not hardwired at PE %d: p2 = %d", pe, got)
		}
	}
}

func TestBranchesAndJumps(t *testing.T) {
	m := newMachine(t, cfg8(1), `
		li s1, 3
		li s2, 0
	loop:
		add s2, s2, s1    ; s2 += 3
		addi s1, s1, -1
		bnez s1, loop
		call sub
		j end
	sub:
		addi s2, s2, 100
		ret
	end:
		halt
	`)
	run(t, m)
	if got := m.Scalar(0, 2); got != 106 { // 3+2+1=6, +100
		t.Errorf("s2 = %d, want 106", got)
	}
}

func TestScalarMemory(t *testing.T) {
	m := newMachine(t, cfg8(1), `
		.data
	tbl:
		.word 5, 10, 15
		.text
		li s1, tbl
		lw s2, 0(s1)
		lw s3, 1(s1)
		add s4, s2, s3
		sw s4, 2(s1)
		lw s5, 2(s1)
		halt
	`)
	run(t, m)
	if got := m.Scalar(0, 5); got != 15 {
		t.Errorf("store/load round trip = %d, want 15", got)
	}
	if got := m.ScalarMem(2); got != 15 {
		t.Errorf("mem[2] = %d, want 15", got)
	}
}

func TestParallelOpsAndBroadcast(t *testing.T) {
	m := newMachine(t, cfg8(8), `
		pidx p1           ; p1 = PE index
		li s1, 10
		padd p2, p1, s1   ; broadcast: p2 = idx + 10
		padd p3, p1, p1   ; p3 = 2*idx
		paddi p4, p1, 3   ; p4 = idx + 3
		halt
	`)
	run(t, m)
	for pe := 0; pe < 8; pe++ {
		if got := m.Parallel(0, pe, 2); got != int64(pe+10) {
			t.Errorf("PE %d p2 = %d, want %d", pe, got, pe+10)
		}
		if got := m.Parallel(0, pe, 3); got != int64(2*pe) {
			t.Errorf("PE %d p3 = %d, want %d", pe, got, 2*pe)
		}
		if got := m.Parallel(0, pe, 4); got != int64(pe+3) {
			t.Errorf("PE %d p4 = %d, want %d", pe, got, pe+3)
		}
	}
}

func TestMaskedExecution(t *testing.T) {
	m := newMachine(t, cfg8(8), `
		pidx p1
		pli p2, 4
		pclt f1, p1, p2   ; responders: idx < 4
		pli p3, 7 ?f1     ; only responders set p3
		halt
	`)
	run(t, m)
	for pe := 0; pe < 8; pe++ {
		want := int64(0)
		if pe < 4 {
			want = 7
		}
		if got := m.Parallel(0, pe, 3); got != want {
			t.Errorf("PE %d p3 = %d, want %d", pe, got, want)
		}
	}
}

func TestComparisonsSignedUnsigned(t *testing.T) {
	m := newMachine(t, cfg8(2), `
		pli p1, -1        ; pattern 255
		pli p2, 1
		pclt f1, p1, p2   ; signed: -1 < 1 -> 1
		pcltu f2, p1, p2  ; unsigned: 255 < 1 -> 0
		pcge f3, p2, p1   ; 1 >= -1 -> 1
		pcgeu f4, p2, p1  ; 1 >= 255 -> 0
		pceq f5, p1, p1
		pcne f6, p1, p2
		pcle f7, p1, p2
		halt
	`)
	run(t, m)
	wants := map[uint8]bool{1: true, 2: false, 3: true, 4: false, 5: true, 6: true, 7: true}
	for f, want := range wants {
		if got := m.Flag(0, 0, f); got != want {
			t.Errorf("f%d = %v, want %v", f, got, want)
		}
	}
}

func TestFlagLogic(t *testing.T) {
	m := newMachine(t, cfg8(1), `
		fset f1
		fclr f2
		fand f3, f1, f2   ; 0
		for  f4, f1, f2   ; 1
		fxor f5, f1, f1   ; 0
		fandn f6, f1, f2  ; 1 AND NOT 0 = 1
		fnot f7, f2       ; 1
		halt
	`)
	run(t, m)
	wants := map[uint8]bool{1: true, 2: false, 3: false, 4: true, 5: false, 6: true, 7: true}
	for f, want := range wants {
		if got := m.Flag(0, 0, f); got != want {
			t.Errorf("f%d = %v, want %v", f, got, want)
		}
	}
}

func TestLocalMemory(t *testing.T) {
	m := newMachine(t, Config{PEs: 4, Threads: 2, Width: 16, LocalMemWords: 32}, `
		pidx p1
		pslli p2, p1, 2   ; p2 = 4*idx
		psw p2, 0(p1)     ; mem[idx] = 4*idx
		plw p3, 0(p1)
		halt
	`)
	run(t, m)
	for pe := 0; pe < 4; pe++ {
		if got := m.LocalMem(pe, pe); got != int64(4*pe) {
			t.Errorf("PE %d mem[%d] = %d", pe, pe, got)
		}
		if got := m.Parallel(0, pe, 3); got != int64(4*pe) {
			t.Errorf("PE %d p3 = %d", pe, got)
		}
	}
}

func TestLocalMemTrap(t *testing.T) {
	m := newMachine(t, Config{PEs: 2, Threads: 1, Width: 16, LocalMemWords: 8}, `
		pli p1, 100
		plw p2, 0(p1)
		halt
	`)
	var err error
	for !m.Halted() && err == nil {
		_, err = m.ExecDecoded(0, dec(m.prog[m.PC(0)]))
	}
	if err == nil {
		t.Fatal("out-of-range local load did not trap")
	}
	if !strings.Contains(err.Error(), "local load address") {
		t.Errorf("unexpected trap: %v", err)
	}
}

func TestReductions(t *testing.T) {
	m := newMachine(t, Config{PEs: 8, Threads: 1, Width: 16}, `
		pidx p1
		paddi p2, p1, 1   ; p2 = idx+1: 1..8
		rsum s1, p2       ; 36
		rmax s2, p2       ; 8
		rmin s3, p2       ; 1
		ror  s4, p2       ; 1|2|..|8 = 15
		rand s5, p2       ; 0
		pceq f1, p1, p1   ; all respond
		rcount s6, f1     ; 8
		rany s7, f1       ; 1
		halt
	`)
	run(t, m)
	want := map[uint8]int64{1: 36, 2: 8, 3: 1, 4: 15, 5: 0, 6: 8, 7: 1}
	for r, v := range want {
		if got := m.Scalar(0, r); got != v {
			t.Errorf("s%d = %d, want %d", r, got, v)
		}
	}
}

func TestMaskedReductionAndIdentities(t *testing.T) {
	m := newMachine(t, cfg8(8), `
		pidx p1
		pli p2, 4
		pclt f1, p1, p2    ; responders: idx 0..3
		rsum s1, p1 ?f1    ; 0+1+2+3 = 6
		rmax s2, p1 ?f1    ; 3
		pcgt f2, p1, p2
		pclt f3, p1, p0    ; idx < 0: no responders
		rsum s3, p1 ?f3    ; identity 0
		rmax s4, p1 ?f3    ; identity -128 -> 128 pattern
		rmin s5, p1 ?f3    ; identity 127
		rany s6, f3        ; 0
		rcount s7, f3      ; 0
		halt
	`)
	run(t, m)
	want := map[uint8]int64{1: 6, 2: 3, 3: 0, 4: 128, 5: 127, 6: 0, 7: 0}
	for r, v := range want {
		if got := m.Scalar(0, r); got != v {
			t.Errorf("s%d = %d, want %d", r, got, v)
		}
	}
}

func TestUnsignedReductions(t *testing.T) {
	m := newMachine(t, cfg8(4), `
		pidx p1
		pli p2, -1        ; 255
		pceq f1, p1, p0   ; only PE 0
		pmov p3, p2 ?f1   ; PE0: 255, others 0
		rmaxu s1, p3      ; 255
		rmax  s2, p3      ; signed max(−1, 0,0,0) = 0
		rminu s3, p2      ; 255 everywhere -> 255
		halt
	`)
	run(t, m)
	if got := m.Scalar(0, 1); got != 255 {
		t.Errorf("rmaxu = %d, want 255", got)
	}
	if got := m.Scalar(0, 2); got != 0 {
		t.Errorf("rmax = %d, want 0", got)
	}
	if got := m.Scalar(0, 3); got != 255 {
		t.Errorf("rminu = %d, want 255", got)
	}
}

func TestSaturatingSumReduction(t *testing.T) {
	m := newMachine(t, cfg8(8), `
		pli p1, 100
		rsum s1, p1       ; 800 saturates to 127
		pli p2, -100
		rsum s2, p2       ; -800 saturates to -128 -> pattern 128
		halt
	`)
	run(t, m)
	if got := m.Scalar(0, 1); got != 127 {
		t.Errorf("saturated sum = %d, want 127", got)
	}
	if got := m.Scalar(0, 2); got != 128 {
		t.Errorf("saturated negative sum = %d, want 128 (-128)", got)
	}
}

// TestResponseCounterWrapsAtWidth: with 2^Width or more responders RCOUNT
// writes the count modulo 2^Width, while RANY is 1 from the unwrapped count
// (256 responders at width 8 count 0 yet some respond). The single-step
// path, Reduce, and the fused compare→count kernel agree.
func TestResponseCounterWrapsAtWidth(t *testing.T) {
	const src = `
		pceq f1, p0, p0   ; every PE responds
		rcount s1, f1
		pceq f2, p0, p0
		rany s2, f2
		halt
	`
	check := func(name string, m *Machine, pes int) {
		t.Helper()
		if got, want := m.Scalar(0, 1), int64(pes%256); got != want {
			t.Errorf("%s pes=%d: rcount = %d, want %d", name, pes, got, want)
		}
		if got := m.Scalar(0, 2); got != 1 {
			t.Errorf("%s pes=%d: rany = %d, want 1", name, pes, got)
		}
	}
	for _, pes := range []int{256, 300} {
		m := newMachine(t, Config{PEs: pes, Threads: 1, Width: 8}, src)
		run(t, m)
		check("exec", m, pes)
		prog := m.prog
		if got, want := m.Reduce(0, dec(prog[1])), int64(pes%256); got != want {
			t.Errorf("pes=%d: Reduce(rcount) = %d, want %d", pes, got, want)
		}
		if got := m.Reduce(0, dec(prog[3])); got != 1 {
			t.Errorf("pes=%d: Reduce(rany) = %d, want 1", pes, got)
		}
		m = newMachine(t, Config{PEs: pes, Threads: 1, Width: 8}, src)
		m.ExecFused(0, []*isa.Decoded{dec(prog[0]), dec(prog[1])})
		m.ExecFused(0, []*isa.Decoded{dec(prog[2]), dec(prog[3])})
		check("fused", m, pes)
	}
}

func TestResponderIteration(t *testing.T) {
	// Classic ASC idiom: iterate responders one at a time with
	// RFIRST + FANDN, accumulating values via masked ROR.
	m := newMachine(t, cfg8(8), `
		pidx p1
		paddi p2, p1, 10  ; value = idx + 10
		pclt f1, p1, s1   ; dummy clear
		pli p3, 5
		pclt f1, p1, p3   ; responders: idx 0..4... actually idx<5
		li s2, 0          ; sum of selected values
	loop:
		rany s3, f1
		beqz s3, done
		rfirst f2, f1
		ror s4, p2 ?f2    ; read selected PE's value
		add s2, s2, s4
		fandn f1, f1, f2  ; clear selected responder
		j loop
	done:
		halt
	`)
	run(t, m)
	// idx 0..4 -> values 10+11+12+13+14 = 60
	if got := m.Scalar(0, 2); got != 60 {
		t.Errorf("responder iteration sum = %d, want 60", got)
	}
}

func TestRFIRSTWritesAllPEs(t *testing.T) {
	m := newMachine(t, cfg8(4), `
		fset f1           ; all respond
		fset f2           ; pre-set the destination everywhere
		rfirst f2, f1
		halt
	`)
	run(t, m)
	for pe := 0; pe < 4; pe++ {
		want := pe == 0
		if got := m.Flag(0, pe, 2); got != want {
			t.Errorf("PE %d f2 = %v, want %v (resolver writes all PEs)", pe, got, want)
		}
	}
}

func TestThreadSpawnJoinSendRecv(t *testing.T) {
	m := newMachine(t, Config{PEs: 2, Threads: 4, Width: 16}, `
		tspawn s1, worker
		tsend s1, s2      ; send 0 (s2 unset)
		li s3, 21
		tsend s1, s3      ; send 21
		tjoin s1
		lw s4, 0(s0)      ; worker stored its result at mem[0]
		halt
	worker:
		trecv s1          ; 0
		trecv s2          ; 21
		add s3, s1, s2
		add s3, s3, s3    ; 42
		sw s3, 0(s0)
		texit
	`)
	run(t, m)
	if got := m.Scalar(0, 4); got != 42 {
		t.Errorf("s4 = %d, want 42", got)
	}
}

func TestSpawnExhaustion(t *testing.T) {
	m := newMachine(t, Config{PEs: 1, Threads: 2, Width: 16}, `
		tspawn s1, worker  ; uses the only free context
		tspawn s2, worker  ; none left -> -1
		halt
	worker:
	spin:
		j spin
	`)
	// Step only thread 0 (the worker spins forever).
	for i := 0; i < 3; i++ {
		if _, err := m.ExecDecoded(0, dec(m.prog[m.PC(0)])); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Scalar(0, 1); got != 1 {
		t.Errorf("first spawn = %d, want 1", got)
	}
	if got := int16(m.Scalar(0, 2)); got != -1 {
		t.Errorf("exhausted spawn = %d, want -1", got)
	}
}

func TestMailboxBlocking(t *testing.T) {
	m, err := New(Config{PEs: 1, Threads: 2, Width: 16, MailboxCap: 1}, asm.MustAssemble(`
		trecv s1
		halt
	`).Insts)
	if err != nil {
		t.Fatal(err)
	}
	in := m.prog[0]
	if !m.BlockedDecoded(0, dec(in)) {
		t.Error("TRECV with empty mailbox should block")
	}
	// TSEND to self: fill the mailbox, then it should block.
	send := isa.Inst{Op: isa.TSEND, Ra: 0, Rb: 0} // thread s0=0, value 0
	if m.BlockedDecoded(0, dec(send)) {
		t.Error("TSEND to empty mailbox should not block")
	}
	if _, err := m.ExecDecoded(0, dec(send)); err != nil {
		t.Fatal(err)
	}
	if !m.BlockedDecoded(0, dec(send)) {
		t.Error("TSEND to full mailbox should block")
	}
	if m.BlockedDecoded(0, dec(in)) {
		t.Error("TRECV with queued value should not block")
	}
}

func TestTJOINBlockedWhileAlive(t *testing.T) {
	m, err := New(Config{PEs: 1, Threads: 2, Width: 16}, asm.MustAssemble(`
		tspawn s1, w
		tjoin s1
		halt
	w:
		texit
	`).Insts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecDecoded(0, dec(m.prog[0])); err != nil { // spawn
		t.Fatal(err)
	}
	join := m.prog[1]
	if !m.BlockedDecoded(0, dec(join)) {
		t.Error("TJOIN should block while the target is active")
	}
	if _, err := m.ExecDecoded(1, dec(m.prog[3])); err != nil { // worker texit
		t.Fatal(err)
	}
	if m.BlockedDecoded(0, dec(join)) {
		t.Error("TJOIN should unblock after target exit")
	}
}

func TestHaltedWhenAllThreadsExit(t *testing.T) {
	m := newMachine(t, Config{PEs: 1, Threads: 2, Width: 16}, `
		texit
	`)
	if m.Halted() {
		t.Fatal("halted before executing")
	}
	if _, err := m.ExecDecoded(0, dec(m.prog[0])); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Error("machine with no active threads should report halted")
	}
}

func TestPCOutOfBoundsTrap(t *testing.T) {
	m := newMachine(t, cfg8(1), `nop`)
	if _, err := m.ExecDecoded(0, dec(m.prog[0])); err != nil {
		t.Fatal(err)
	}
	// PC now == len(prog): allowed boundary (falls off the end is caught by
	// the driver); jumping beyond must trap.
	m.SetPC(0, 0)
	_, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.J, Imm: 99}))
	if err == nil {
		t.Error("jump beyond program did not trap")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{PEs: -1},
		{Threads: 100},
		{Width: 12},
		{MailboxCap: -2},
	}
	for _, c := range bad {
		if _, err := New(c, nil); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	var def Config
	if err := def.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if def.PEs != 16 || def.Threads != 16 || def.Width != 8 || def.LocalMemWords != 1024 {
		t.Errorf("defaults = %+v, want the paper prototype parameters", def)
	}
}

// Property: scalar ALU results match a 64-bit reference computation masked
// to the width, for all three widths.
func TestALUMatchesReference(t *testing.T) {
	ops := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLT, isa.SLTU, isa.MUL}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		for _, width := range []uint{8, 16, 32} {
			m, err := New(Config{PEs: 1, Threads: 1, Width: width}, make([]isa.Inst, 4))
			if err != nil {
				t.Fatal(err)
			}
			wmask := int64(1)<<width - 1
			a := rnd.Int63() & wmask
			b := rnd.Int63() & wmask
			sa := a << (64 - width) >> (64 - width)
			sb := b << (64 - width) >> (64 - width)
			m.SetScalar(0, 1, a)
			m.SetScalar(0, 2, b)
			for _, op := range ops {
				in := isa.Inst{Op: op, Rd: 3, Ra: 1, Rb: 2}
				if _, err := m.ExecDecoded(0, dec(in)); err != nil {
					t.Logf("exec: %v", err)
					return false
				}
				m.SetPC(0, 0)
				var want int64
				switch op {
				case isa.ADD:
					want = (a + b) & wmask
				case isa.SUB:
					want = (a - b) & wmask
				case isa.AND:
					want = a & b
				case isa.OR:
					want = a | b
				case isa.XOR:
					want = a ^ b
				case isa.SLT:
					if sa < sb {
						want = 1
					}
				case isa.SLTU:
					if a < b {
						want = 1
					}
				case isa.MUL:
					want = (sa * sb) & wmask
				}
				if got := m.Scalar(0, 3); got != want {
					t.Logf("width %d %v: a=%d b=%d got %d want %d", width, op, a, b, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: parallel ALU == the reference interpreter's scalar ALU applied
// pointwise on every PE.
func TestParallelMatchesScalarPointwise(t *testing.T) {
	pairs := []struct {
		par, sc isa.Op
	}{
		{isa.PADD, isa.ADD}, {isa.PSUB, isa.SUB}, {isa.PAND, isa.AND},
		{isa.POR, isa.OR}, {isa.PXOR, isa.XOR}, {isa.PMUL, isa.MUL},
		{isa.PDIV, isa.DIV}, {isa.PMOD, isa.MOD},
	}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := 1 + rnd.Intn(16)
		mp, _ := New(Config{PEs: p, Threads: 1, Width: 8}, make([]isa.Inst, 4))
		ms, _ := New(Config{PEs: 1, Threads: 1, Width: 8}, make([]isa.Inst, 4))
		avals := make([]int64, p)
		bvals := make([]int64, p)
		for pe := 0; pe < p; pe++ {
			avals[pe] = int64(rnd.Intn(256))
			bvals[pe] = int64(rnd.Intn(256))
			mp.SetParallel(0, pe, 1, avals[pe])
			mp.SetParallel(0, pe, 2, bvals[pe])
		}
		for _, pair := range pairs {
			if _, err := mp.ExecDecoded(0, dec(isa.Inst{Op: pair.par, Rd: 3, Ra: 1, Rb: 2})); err != nil {
				return false
			}
			mp.SetPC(0, 0)
			for pe := 0; pe < p; pe++ {
				ms.SetScalar(0, 1, avals[pe])
				ms.SetScalar(0, 2, bvals[pe])
				if _, err := ms.ExecRef(0, isa.Inst{Op: pair.sc, Rd: 3, Ra: 1, Rb: 2}); err != nil {
					return false
				}
				ms.SetPC(0, 0)
				if mp.Parallel(0, pe, 3) != ms.Scalar(0, 3) {
					t.Logf("%v PE %d: a=%d b=%d par=%d scalar=%d",
						pair.par, pe, avals[pe], bvals[pe], mp.Parallel(0, pe, 3), ms.Scalar(0, 3))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWidth32(t *testing.T) {
	m := newMachine(t, Config{PEs: 4, Threads: 1, Width: 32}, `
		li s1, 0x12345
		li s2, 0x54321
		add s3, s1, s2
		halt
	`)
	run(t, m)
	if got := m.Scalar(0, 3); got != 0x66666 {
		t.Errorf("32-bit add = %#x, want 0x66666", got)
	}
}

// TestValidateRejectsUnknownEngine: Config.Engine selects nothing, and
// Validate accepts only its two remaining values, EngineAuto and
// EngineSerial.
func TestValidateRejectsUnknownEngine(t *testing.T) {
	for _, e := range []Engine{EngineAuto, EngineSerial} {
		c := Config{Engine: e}
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(Engine %d) = %v, want nil", e, err)
		}
	}
	for _, e := range []Engine{2, 9} {
		c := Config{Engine: e}
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted unknown engine %d", e)
		}
	}
}
