package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	asc "repro"
	"repro/client"
	"repro/internal/machine"
)

// The correctness gate. Before any timing, every distinct deck job runs on
// the library path — the facade with the block plane off and the serial
// engine, the simplest execution tier — and the outcome is checked against
// the kernel's Go oracle where one exists, and deck-wide against a committed
// golden for seeds 1 and 2. During the run every served result must equal
// its job's reference exactly, except that a job resumed from a snapshot
// may differ in cycles by resumeCycleSlack.

// resumeCycleSlack is the cycle-count tolerance of a job that resumed from
// a snapshot — a migrated session, or a peeled gang lane finishing on a
// solo machine: Restore clears busy functional units, so a resume at an
// arbitrary boundary shifts the total by up to one pipeline refill.
// Instructions and final state must still match exactly.
const resumeCycleSlack = 16

// reference is one job's expected outcome.
type reference struct {
	cycles       int64
	instructions int64
	// scalar is the final control-unit memory through its last nonzero
	// word; the job asks the server to dump exactly that many words.
	scalar []int64
}

// compileReq compiles a request's program through the facade.
func compileReq(req *client.RunRequest) (*asc.Program, error) {
	if req.ASCL != "" {
		prog, _, err := asc.CompileASCL(req.ASCL)
		return prog, err
	}
	return asc.Assemble(req.Asm)
}

// libraryRun executes req on the reference tier.
func libraryRun(req *client.RunRequest) (*reference, error) {
	prog, err := compileReq(req)
	if err != nil {
		return nil, err
	}
	cfg := req.Config.ASC()
	cfg.Blocks, cfg.Engine = asc.BlocksOff, asc.EngineSerial
	p, err := asc.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	if err := loadImages(p, req); err != nil {
		return nil, err
	}
	st, err := p.Run(0)
	if err != nil {
		return nil, err
	}
	geom, err := cfg.Geometry()
	if err != nil {
		return nil, err
	}
	n := 1
	for w := 0; w < geom.ScalarMemWords; w++ {
		if p.ScalarMem(w) != 0 {
			n = w + 1
		}
	}
	ref := &reference{cycles: st.Cycles, instructions: st.Instructions, scalar: make([]int64, n)}
	for w := range ref.scalar {
		ref.scalar[w] = p.ScalarMem(w)
	}
	return ref, nil
}

func loadImages(p *asc.Processor, req *client.RunRequest) error {
	if len(req.LocalMem) > 0 {
		if err := p.LoadLocalMem(req.LocalMem); err != nil {
			return err
		}
	}
	if len(req.ScalarMem) > 0 {
		return p.LoadScalarMem(req.ScalarMem)
	}
	return nil
}

// oracle runs the kernel's Go oracle over the reference's final scalar
// memory.
func oracle(j *job) error {
	if j.check == nil {
		return nil
	}
	m, err := machine.New(machine.Config{PEs: 1, Threads: 1, Width: 16}, nil)
	if err != nil {
		return err
	}
	if err := m.LoadScalarMem(j.ref.scalar); err != nil {
		return err
	}
	return j.check(m)
}

// computeRefs fills every distinct job's reference and dump size, checking
// each against its oracle. Jobs run on one goroutine per CPU.
func computeRefs(d *deck) error {
	jobs := d.distinctJobs()
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				ref, err := libraryRun(&j.req)
				if err == nil {
					j.ref = ref
					j.req.DumpScalar = len(ref.scalar)
					err = oracle(j)
				}
				errs[i] = err
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference for %s job %d: %w", d.workload, i, err)
		}
	}
	return nil
}

// match compares a served result with its reference.
func match(res *client.RunResult, ref *reference, cycleSlack int64) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Instructions != ref.instructions {
		return fmt.Errorf("instructions %d, want %d", res.Instructions, ref.instructions)
	}
	if d := res.Cycles - ref.cycles; d > cycleSlack || d < -cycleSlack {
		return fmt.Errorf("cycles %d, want %d (slack %d)", res.Cycles, ref.cycles, cycleSlack)
	}
	if len(res.ScalarMem) != len(ref.scalar) {
		return fmt.Errorf("dumped %d scalar words, want %d", len(res.ScalarMem), len(ref.scalar))
	}
	for w, v := range ref.scalar {
		if res.ScalarMem[w] != v {
			return fmt.Errorf("scalar word %d = %d, want %d", w, res.ScalarMem[w], v)
		}
	}
	return nil
}

// deckStats is the deck-level simulated outcome the golden pins: one pass
// over the deck as served, every job counted as often as it is sent.
type deckStats struct {
	Jobs         int    `json:"jobs"`
	Cycles       int64  `json:"cycles"`
	Instructions int64  `json:"instructions"`
	Digest       string `json:"digest"` // SHA-256 over every job's cycles, instructions, and dump
}

func summarize(d *deck) deckStats {
	var s deckStats
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, e := range d.entries {
		for _, j := range e.jobs {
			s.Jobs++
			s.Cycles += j.ref.cycles
			s.Instructions += j.ref.instructions
			put(j.ref.cycles)
			put(j.ref.instructions)
			put(int64(len(j.ref.scalar)))
			for _, v := range j.ref.scalar {
				put(v)
			}
		}
	}
	s.Digest = hex.EncodeToString(h.Sum(nil))
	return s
}

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenKey names a golden entry; goldens exist for full-size decks only.
func goldenKey(workload string, seed int64) string {
	return fmt.Sprintf("%s/seed=%d", workload, seed)
}

func loadGolden() (map[string]deckStats, error) {
	g := map[string]deckStats{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parsing golden: %w", err)
	}
	return g, nil
}

// checkGolden compares a full-size deck's stats with the committed golden;
// decks without a golden (other seeds or sizes) pass.
func checkGolden(golden map[string]deckStats, d *deck) error {
	if len(d.entries) != defaultDeckSize {
		return nil
	}
	want, ok := golden[goldenKey(d.workload, d.seed)]
	if !ok {
		return nil
	}
	if got := summarize(d); got != want {
		return fmt.Errorf("%s seed %d: deck stats %+v differ from golden %+v", d.workload, d.seed, got, want)
	}
	return nil
}

// gate computes the references and runs all three checks.
func gate(d *deck) error {
	if err := computeRefs(d); err != nil {
		return err
	}
	for _, e := range d.entries {
		if e.kind == callMigrate && e.jobs[0].ref.cycles <= d.checkpointEvery {
			return fmt.Errorf("%s: migration job of %d cycles ends before its first checkpoint at %d",
				e.kernel, e.jobs[0].ref.cycles, d.checkpointEvery)
		}
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	return checkGolden(golden, d)
}
