package main

import (
	"fmt"
	"math/rand"

	"repro/client"
	"repro/internal/machine"
	"repro/internal/progs"
)

// A deck is the fixed list of requests one workload cycles through, built
// from the seed alone. The system under test only ever sees these requests
// (plus the per-call nonce comment of fleet-short). Deck composition is
// stratified — every kernel appears equally often, in a seeded order, with
// seeded data — so seeds move the data and the order, not the mix, and
// throughput compares across seeds.

// callKind is how one deck entry reaches the serving tier.
type callKind int

const (
	callRun     callKind = iota // POST /v1/run
	callBatch                   // POST /v1/batch
	callSession                 // POST /v1/sessions, resumable with periodic checkpoints
	callMigrate                 // a session on A, its envelope exported and resumed on B
)

// job is one simulation job and its expected outcome.
type job struct {
	req client.RunRequest
	// check is the kernel's progs oracle over final scalar memory; nil for
	// kernels that have none.
	check func(*machine.Machine) error
	// ref is the library-path reference outcome, filled by the gate.
	ref *reference
}

// entry is one call of the deck.
type entry struct {
	kind   callKind
	kernel string
	jobs   []*job // one job, or a whole batch
	// divergentLane is the lane of a batch whose job's control flow differs
	// from the rest: that lane peels out of the gang and resumes from a
	// snapshot on a solo machine. 0 means none, since lane 0 never holds
	// the divergent job (see gangBatchEntries).
	divergentLane int
}

// batch is a batch entry's request.
func (e *entry) batch() client.BatchRequest {
	reqs := make([]client.RunRequest, len(e.jobs))
	for i, j := range e.jobs {
		reqs[i] = j.req
	}
	return client.BatchRequest{Jobs: reqs}
}

// deck is a workload's request list plus the settings its calls need.
type deck struct {
	workload string
	seed     int64
	entries  []*entry
	// pes is the workload's main PE count; layer measurements size the
	// machine and the reduction tree with it.
	pes int
	// nonceEvery makes every nonceEvery-th call unique (0 = never).
	nonceEvery int64
	// checkpointEvery is the session checkpoint cadence in cycles.
	checkpointEvery int64
}

// distinctJobs lists the deck's jobs once each, in first-use order (decks
// reuse job values where the same request repeats).
func (d *deck) distinctJobs() []*job {
	seen := map[*job]bool{}
	var out []*job
	for _, e := range d.entries {
		for _, j := range e.jobs {
			if !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
	}
	return out
}

// defaultDeckSize is the entries per deck of a benchmark run.
const defaultDeckSize = 256

// buildDeck builds a workload's deck of n entries from seed.
func buildDeck(workload string, seed int64, n int) (*deck, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &deck{workload: workload, seed: seed}
	switch workload {
	case "fleet-short":
		d.pes, d.nonceEvery = 16, 8
		d.entries = fleetShortEntries(rng, n)
	case "mt16-long":
		d.pes = 16
		d.entries = mt16LongEntries(rng, n)
	case "gang-batch":
		d.pes = 16
		d.entries = gangBatchEntries(rng, n)
	case "wide-session":
		d.pes, d.checkpointEvery = 1024, 16384
		d.entries = wideSessionEntries(rng, n)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return d, nil
}

// cycler yields kinds 0..n-1 in seeded permutation rounds: every kind
// appears once per round.
func cycler(rng *rand.Rand, n int) func() int {
	var round []int
	return func() int {
		if len(round) == 0 {
			round = rng.Perm(n)
		}
		k := round[0]
		round = round[1:]
		return k
	}
}

// stratified fills n entries with kinds drawn by a cycler.
func stratified(rng *rand.Rand, n, kinds int, mk func(kind int) *entry) []*entry {
	next := cycler(rng, kinds)
	out := make([]*entry, n)
	for i := range out {
		out[i] = mk(next())
	}
	return out
}

// kernelJob wraps a progs kernel instance as a job.
func kernelJob(ins progs.Instance, cfg client.MachineConfig) *job {
	return &job{
		req: client.RunRequest{
			Asm: ins.Source, Config: cfg,
			LocalMem: ins.LocalMem, ScalarMem: ins.ScalarMem,
		},
		check: ins.Check,
	}
}

// asclKernel is an ASCL program with a data generator; these have no Go
// oracle, only the library-path reference.
type asclKernel struct {
	name string
	src  string
}

var asclKernels = []asclKernel{
	{"ascl-stats", `
		parallel v = pread(0);
		write(1, sumval(v));
		write(2, maxval(v));
		write(3, minval(v));
		write(4, mindex(v));
	`},
	{"ascl-threshold-visit", `
		scalar threshold = read(0);
		parallel reading = pread(0);
		flag hot = reading > threshold;
		write(1, countval(hot));
		scalar idsum = 0;
		parallel id = idx();
		foreach (hot) {
			idsum = idsum + this(id);
		}
		write(2, idsum);
	`},
	{"ascl-decay", `
		parallel v = pread(0);
		scalar i = 0;
		scalar acc = 0;
		while (i < 12) {
			where (v > i) {
				v = v - 1;
			}
			acc = acc + countval(v > 0);
			i = i + 1;
		}
		write(1, acc);
		write(2, sumval(v));
	`},
}

// fleetShortEntries: the 12 suite kernels and the ASCL programs at 16 PEs,
// each entry with its own data.
func fleetShortEntries(rng *rand.Rand, n int) []*entry {
	const pes = 16
	suiteKinds := len(progs.Suite(pes, 0))
	return stratified(rng, n, suiteKinds+len(asclKernels), func(k int) *entry {
		seed := rng.Int63n(1 << 40)
		if k < suiteKinds {
			ins := progs.Suite(pes, seed)[k]
			cfg := client.MachineConfig{PEs: pes, Width: ins.Width}
			return &entry{kind: callRun, kernel: ins.Name, jobs: []*job{kernelJob(ins, cfg)}}
		}
		ak := asclKernels[k-suiteKinds]
		r := rand.New(rand.NewSource(seed))
		local := make([][]int64, pes)
		for i := range local {
			local[i] = []int64{r.Int63n(201) - 100}
		}
		j := &job{req: client.RunRequest{
			ASCL:      ak.src,
			Config:    client.MachineConfig{PEs: pes, Width: 16},
			LocalMem:  local,
			ScalarMem: []int64{r.Int63n(101) - 50},
		}}
		return &entry{kind: callRun, kernel: ak.name, jobs: []*job{j}}
	})
}

// mt16LongEntries: the paper prototype (16 PEs, 16 contexts) running the
// multithreaded reduction chains at 4/8/16 active threads. The kernel has
// no data, so the nine (threads, iterations) jobs repeat in seeded order.
func mt16LongEntries(rng *rand.Rand, n int) []*entry {
	var kinds []*entry
	for _, threads := range []int{4, 8, 16} {
		for _, iters := range []int{1024, 1536, 2048} {
			ins := progs.MTReduction(16, threads, iters)
			j := kernelJob(ins, client.MachineConfig{PEs: 16, Threads: 16, Width: ins.Width})
			kinds = append(kinds, &entry{kind: callRun, kernel: fmt.Sprintf("%s-%d", ins.Name, iters), jobs: []*job{j}})
		}
	}
	return stratified(rng, n, len(kinds), func(k int) *entry { return kinds[k] })
}

// gangKernel is a single-threaded associative loop whose control flow
// depends only on its trip count (or responder count), so same-program jobs
// with different data stay in lockstep; gen's divergent images change that
// count by one, which forces a peel.
type gangKernel struct {
	name string
	src  string
	gen  func(r *rand.Rand, divergent bool) (local [][]int64, scalar []int64)
}

const gangTrips = 1000

func tripCount(divergent bool) int64 {
	if divergent {
		return gangTrips + 1
	}
	return gangTrips
}

func columns(r *rand.Rand, pes int, lo, hi []int64) [][]int64 {
	out := make([][]int64, pes)
	for pe := range out {
		row := make([]int64, len(lo))
		for w := range row {
			row[w] = lo[w] + r.Int63n(hi[w]-lo[w]+1)
		}
		out[pe] = row
	}
	return out
}

var gangKernels = []gangKernel{
	{"search-fold", `
		lw s1, 0(s0)       ; trip count
		lw s3, 1(s0)       ; search threshold
		plw p1, 0(p0)      ; per-PE step
	loop:
		padd p3, p3, p1    ; fusible ALU run feeding the search
		pcgt f1, p3, s3    ; broadcast compare: the associative search step
		fand f2, f1, f1
		rcount s4, f1      ; compare+fold
		add s5, s5, s4
		rsum s2, p3        ; fold the values too
		add s6, s6, s2
		addi s1, s1, -1
		bnez s1, loop
		sw s5, 2(s0)
		sw s6, 3(s0)
		halt
	`, func(r *rand.Rand, div bool) ([][]int64, []int64) {
		return columns(r, 16, []int64{1}, []int64{5}), []int64{tripCount(div), 20 + r.Int63n(40)}
	}},
	{"responder-rounds", `
		lw s7, 0(s0)       ; rounds
		lw s1, 1(s0)       ; threshold
		plw p1, 0(p0)
		li s2, 0
	round:
		pcgt f1, p1, s1    ; responders
	loop:
		rany s3, f1
		beqz s3, next
		rfirst f2, f1      ; pick one
		ror s4, p1 ?f2     ; read it
		add s2, s2, s4
		fandn f1, f1, f2   ; retire it
		j loop
	next:
		addi s7, s7, -1
		bnez s7, round
		sw s2, 2(s0)
		halt
	`, func(r *rand.Rand, div bool) ([][]int64, []int64) {
		// Exactly 8 responders (9 when divergent) at seeded positions: the
		// loop trip count depends on the count only.
		hot := 8
		if div {
			hot = 9
		}
		local := make([][]int64, 16)
		for i, pe := range r.Perm(16) {
			if i < hot {
				local[pe] = []int64{1 + r.Int63n(100)}
			} else {
				local[pe] = []int64{-r.Int63n(101)}
			}
		}
		return local, []int64{gangTrips / 9, 0}
	}},
	{"histogram-sweep", `
		lw s1, 0(s0)       ; bins
		plw p1, 0(p0)
		li s2, 0           ; bin
		li s4, 0
	loop:
		pceq f1, p1, s2    ; PEs holding this bin value
		rcount s3, f1
		mul s5, s3, s2
		add s4, s4, s5     ; sum of bin * count
		inc s2
		blt s2, s1, loop
		sw s4, 1(s0)
		halt
	`, func(r *rand.Rand, div bool) ([][]int64, []int64) {
		return columns(r, 16, []int64{0}, []int64{gangTrips - 1}), []int64{tripCount(div)}
	}},
	{"extrema-walk", `
		lw s1, 0(s0)       ; trip count
		plw p1, 0(p0)      ; start
		plw p2, 1(p0)      ; step
	loop:
		padd p1, p1, p2
		rmax s2, p1
		rmin s3, p1
		sub s4, s2, s3
		add s5, s5, s4     ; sum of spreads
		addi s1, s1, -1
		bnez s1, loop
		sw s5, 1(s0)
		halt
	`, func(r *rand.Rand, div bool) ([][]int64, []int64) {
		return columns(r, 16, []int64{-50, -3}, []int64{50, 3}), []int64{tripCount(div)}
	}},
}

// gangBatchEntries: 32-job batches of one kernel each. Jobs draw from a
// per-kernel pool of 64 data images; one batch in 8 swaps one job for a
// divergent image, which peels that one lane.
func gangBatchEntries(rng *rand.Rand, n int) []*entry {
	const lanes, images, divergentImages = 32, 64, 8
	cfg := client.MachineConfig{PEs: 16, Threads: 1, Width: 16}
	pools := make([][]*job, len(gangKernels))
	divs := make([][]*job, len(gangKernels))
	for k, gk := range gangKernels {
		for i := 0; i < images+divergentImages; i++ {
			local, scalar := gk.gen(rng, i >= images)
			j := &job{req: client.RunRequest{Asm: gk.src, Config: cfg, LocalMem: local, ScalarMem: scalar}}
			if i < images {
				pools[k] = append(pools[k], j)
			} else {
				divs[k] = append(divs[k], j)
			}
		}
	}
	count := 0
	return stratified(rng, n, len(gangKernels), func(k int) *entry {
		e := &entry{kind: callBatch, kernel: gangKernels[k].name, jobs: make([]*job, lanes)}
		for i := range e.jobs {
			e.jobs[i] = pools[k][rng.Intn(images)]
		}
		if count%8 == 1 {
			// Never lane 0: the gang follows its first lane, so a divergent
			// first lane would peel the other 31 instead of itself.
			e.divergentLane = 1 + rng.Intn(lanes-1)
			e.jobs[e.divergentLane] = divs[k][rng.Intn(divergentImages)]
		}
		count++
		return e
	})
}

// wideSessionEntries: flag- and responder-heavy kernels at 1024 PEs (4
// threads, 64 local words) as resumable sessions. Every 4th entry is a
// migration of a responder-iteration session; one plain session in 10 runs
// a short kernel at 4096 PEs.
func wideSessionEntries(rng *rand.Rand, n int) []*entry {
	wide := func(pes int) client.MachineConfig {
		return client.MachineConfig{PEs: pes, Threads: 4, Width: 16, LocalMemWords: 64}
	}
	kernel := func(name string, pes int, seed int64) progs.Instance {
		switch name {
		case "responder-sum":
			return progs.ResponderSum(pes, seed)
		case "string-search":
			return progs.StringSearch(pes, 8, seed)
		case "histogram":
			return progs.Histogram(pes, 16, seed)
		case "db-select":
			return progs.DbSelect(pes, seed)
		default:
			return progs.PriorityQueue(pes, 512, seed)
		}
	}
	// Migrations already run responder-sum, a quarter of the calls and the
	// slowest. Nine light kernels in each ten plain 1024-PE sessions, and one
	// plain session in ten at 4096 PEs, make the light calls about 61 % of
	// all: the median call then sits inside the light kernels' latency
	// cluster (in string-search, the slowest of the three), not on the steep
	// edge between it and the heavy calls, where a small shift of the mix or
	// of the host would move it far.
	mixed := []string{
		"string-search", "histogram", "db-select", "string-search", "histogram",
		"db-select", "string-search", "histogram", "db-select", "priority-queue",
	}
	short := []string{"string-search", "histogram", "db-select"}
	nextMixed, nextShort := cycler(rng, len(mixed)), cycler(rng, len(short))
	out := make([]*entry, n)
	plain := 0
	for i := range out {
		kind, pes, name := callSession, 1024, ""
		switch {
		case i%4 == 1:
			// Responder iteration over ~512 responders runs well past one
			// checkpoint interval, so every migration has an envelope.
			kind, name = callMigrate, "responder-sum"
		case plain%10 == 2:
			pes, name = 4096, short[nextShort()]
		default:
			name = mixed[nextMixed()]
		}
		if kind == callSession {
			plain++
		}
		ins := kernel(name, pes, rng.Int63n(1<<40))
		out[i] = &entry{kind: kind, kernel: name, jobs: []*job{kernelJob(ins, wide(pes))}}
	}
	return out
}
