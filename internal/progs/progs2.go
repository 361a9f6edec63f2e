package progs

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/machine"
)

// TrackCorrelation is the classic ASC motivating application (air traffic
// control, Potter et al.): each PE holds one radar track's position; for
// each incoming report, the squared distance to every track is computed in
// parallel, the minimum found with RMIN, and the nearest *unmatched* track
// claimed through the resolver. Reports are processed in order; each claims
// the closest remaining track (greedy nearest-neighbour assignment).
func TrackCorrelation(p, reports int, seed int64) Instance {
	const width = 16
	if reports > p {
		reports = p
	}
	r := rand.New(rand.NewSource(seed))
	// Track positions; coordinates bounded so dx^2+dy^2 < 2^15.
	tx := make([]int64, p)
	ty := make([]int64, p)
	local := make([][]int64, p)
	for i := 0; i < p; i++ {
		tx[i] = r.Int63n(100)
		ty[i] = r.Int63n(100)
		local[i] = []int64{tx[i], ty[i]}
	}
	// Reports at scalar memory [0 .. 2*reports); matched track ids are
	// written to [outBase .. outBase+reports).
	outBase := 2 * reports
	smem := make([]int64, 2*reports)
	rx := make([]int64, reports)
	ry := make([]int64, reports)
	for i := 0; i < reports; i++ {
		rx[i] = r.Int63n(100)
		ry[i] = r.Int63n(100)
		smem[2*i] = rx[i]
		smem[2*i+1] = ry[i]
	}
	// Oracle: greedy nearest unmatched track, ties to the lowest id.
	matched := make([]bool, p)
	want := make([]int64, reports)
	for i := 0; i < reports; i++ {
		best, bestD := -1, int64(1)<<62
		for j := 0; j < p; j++ {
			if matched[j] {
				continue
			}
			dx, dy := tx[j]-rx[i], ty[j]-ry[i]
			d := dx*dx + dy*dy
			if d < bestD {
				best, bestD = j, d
			}
		}
		matched[best] = true
		want[i] = int64(best)
	}
	src := fmt.Sprintf(`
		plw p1, 0(p0)     ; track x
		pli p7, 1
		plw p2, 0(p7)     ; track y
		pidx p6           ; track id
		fset f1           ; unmatched
		li s1, 0          ; report pointer
		li s7, %d         ; output pointer
		li s8, %d         ; reports remaining
	report:
		lw s3, 0(s1)      ; report x (broadcast)
		lw s4, 1(s1)      ; report y
		psub p3, p1, s3
		pmul p3, p3, p3   ; dx^2
		psub p4, p2, s4
		pmul p4, p4, p4   ; dy^2
		padd p5, p3, p4   ; squared distance
		rmin s5, p5 ?f1   ; nearest unmatched track
		pceq f2, p5, s5 ?f1
		rfirst f3, f2 ?f1 ; claim exactly one (lowest id on ties)
		ror s6, p6 ?f3    ; its track id
		sw s6, 0(s7)
		fandn f1, f1, f3  ; mark matched
		addi s1, s1, 2
		inc s7
		addi s8, s8, -1
		bnez s8, report
		halt
	`, outBase, reports)
	return Instance{
		Name:      "track-correlation",
		Width:     width,
		Source:    src,
		LocalMem:  local,
		ScalarMem: smem,
		Check: func(m *machine.Machine) error {
			for i := 0; i < reports; i++ {
				if got := m.ScalarMem(outBase + i); got != want[i] {
					return fmt.Errorf("track-correlation: report %d matched track %d, want %d", i, got, want[i])
				}
			}
			return nil
		},
	}
}

// AssociativeSort extracts values in ascending order by repeated unsigned
// min-reduction plus resolver claim — the STARAN-style selection sort whose
// inner loop is nothing but global operations. Duplicates are extracted one
// at a time. The sorted sequence lands in scalar memory.
func AssociativeSort(p int, seed int64) Instance {
	const width = 16
	r := rand.New(rand.NewSource(seed))
	vals := make([]int64, p)
	local := make([][]int64, p)
	for i := range vals {
		vals[i] = r.Int63n(1000)
		local[i] = []int64{vals[i]}
	}
	want := append([]int64(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	src := fmt.Sprintf(`
		plw p1, 0(p0)     ; values
		fset f1           ; remaining
		li s1, 0          ; output pointer
		li s2, %d         ; count
	loop:
		rminu s3, p1 ?f1  ; smallest remaining
		sw s3, 0(s1)
		pceq f2, p1, s3 ?f1
		rfirst f3, f2 ?f1 ; remove exactly one holder
		fandn f1, f1, f3
		inc s1
		addi s2, s2, -1
		bnez s2, loop
		halt
	`, p)
	return Instance{
		Name:     "associative-sort",
		Width:    width,
		Source:   src,
		LocalMem: local,
		Check: func(m *machine.Machine) error {
			for i := 0; i < p; i++ {
				if got := m.ScalarMem(i); got != want[i] {
					return fmt.Errorf("associative-sort: out[%d] = %d, want %d", i, got, want[i])
				}
			}
			return nil
		},
	}
}

// DbSelect is an associative database query: each PE holds one record
// (age, dept, salary); a conjunctive selection (dept == D AND age > A) is
// two parallel comparisons and a flag AND, after which count, maximum
// salary, and total salary are single reductions. No data movement, no
// index — the associative model's standard pitch.
func DbSelect(p int, seed int64) Instance {
	const width = 16
	r := rand.New(rand.NewSource(seed))
	type rec struct{ age, dept, salary int64 }
	recs := make([]rec, p)
	local := make([][]int64, p)
	for i := range recs {
		recs[i] = rec{
			age:    18 + r.Int63n(50),
			dept:   r.Int63n(8),
			salary: 300 + r.Int63n(700),
		}
		local[i] = []int64{recs[i].age, recs[i].dept, recs[i].salary}
	}
	queryDept := r.Int63n(8)
	queryAge := int64(35)
	var wantCount int64
	maskVec := make([]bool, p)
	salaries := make([]int64, p)
	wantMax := int64(0)
	for i, rc := range recs {
		salaries[i] = rc.salary
		if rc.dept == queryDept && rc.age > queryAge {
			maskVec[i] = true
			wantCount++
			if rc.salary > wantMax {
				wantMax = rc.salary
			}
		}
	}
	wantSum := satSum(salaries, maskVec, width)
	src := `
		plw p1, 0(p0)     ; age
		pli p7, 1
		plw p2, 0(p7)     ; dept
		pli p7, 2
		plw p3, 0(p7)     ; salary
		lw s1, 0(s0)      ; query dept
		lw s2, 1(s0)      ; query age
		pceq f1, p2, s1   ; dept == D
		pcgt f2, p1, s2   ; age > A
		fand f3, f1, f2   ; conjunctive selection
		rcount s3, f3
		sw s3, 2(s0)
		rmaxu s4, p3 ?f3
		sw s4, 3(s0)
		rsum s5, p3 ?f3
		sw s5, 4(s0)
		halt
	`
	return Instance{
		Name:      "db-select",
		Width:     width,
		Source:    src,
		LocalMem:  local,
		ScalarMem: []int64{queryDept, queryAge},
		Check: func(m *machine.Machine) error {
			if got := m.ScalarMem(2); got != wantCount {
				return fmt.Errorf("db-select: count %d, want %d", got, wantCount)
			}
			if got := m.ScalarMem(3); got != wantMax {
				return fmt.Errorf("db-select: max salary %d, want %d", got, wantMax)
			}
			if got := m.ScalarMem(4); got != wantSum {
				return fmt.Errorf("db-select: sum %d, want %d", got, wantSum)
			}
			return nil
		},
	}
}
