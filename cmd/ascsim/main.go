// ascsim runs an MTASC assembly program on the cycle-accurate simulator.
//
// Usage:
//
//	ascsim [flags] prog.s
//
//	-pes N        number of processing elements (default 16)
//	-threads N    hardware thread contexts (default 16)
//	-width N      data width in bits: 8, 16, 32 (default 8)
//	-arity K      broadcast tree arity (default 4)
//	-seqmul       use the sequential multiplier
//	-fixed        fixed-priority scheduler instead of rotating
//	-max N        cycle limit (default 10,000,000)
//	-diagram N    print the pipeline diagram of the last N instructions
//	-dump N       print the first N words of scalar data memory at exit
//	              (at most the whole scalar memory)
//	-describe     print the machine organization before running
//	-data FILE    load PE local memory: one line per PE, space-separated
//	              integers (decimal or 0x hex)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	asc "repro"
)

// loadDataFile parses a PE local-memory image: line i holds PE i's words.
// A file with more lines than the machine has PEs is an error — silently
// dropping rows would hide a data/config mismatch.
func loadDataFile(path string, pes int) ([][]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]int64
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fieldsRaw := strings.Fields(strings.TrimSpace(sc.Text()))
		row := make([]int64, 0, len(fieldsRaw))
		for _, tok := range fieldsRaw {
			v, err := strconv.ParseInt(tok, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad value %q", path, lineNo, tok)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	if sc.Err() != nil {
		return nil, sc.Err()
	}
	if len(rows) > pes {
		return nil, fmt.Errorf("%s: %d data lines but the machine has %d PEs", path, len(rows), pes)
	}
	return rows, nil
}

func main() {
	pes := flag.Int("pes", 16, "processing elements")
	threads := flag.Int("threads", 16, "hardware threads")
	width := flag.Uint("width", 8, "data width in bits")
	arity := flag.Int("arity", 4, "broadcast tree arity")
	seqMul := flag.Bool("seqmul", false, "sequential multiplier")
	fixed := flag.Bool("fixed", false, "fixed-priority scheduler")
	maxCycles := flag.Int64("max", 10_000_000, "cycle limit")
	diagram := flag.Int("diagram", 0, "print pipeline diagram of last N instructions")
	dump := flag.Int("dump", 0, "dump first N scalar memory words")
	describe := flag.Bool("describe", false, "print the machine organization")
	dataFile := flag.String("data", "", "PE local memory image (one line per PE)")
	smt := flag.Bool("smt", false, "two-way SMT (dual issue)")
	vcdOut := flag.String("vcd", "", "write a VCD waveform of the run to this file (implies tracing)")
	interactive := flag.Bool("i", false, "interactive debugger (step, breakpoints, inspection)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ascsim [flags] prog.s")
		flag.PrintDefaults()
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asc.Assemble(string(src))
	if err != nil {
		fatal(err)
	}
	cfg := asc.Config{
		PEs: *pes, Threads: *threads, Width: *width, Arity: *arity,
		SeqMul: *seqMul, FixedPriority: *fixed, SMT: *smt,
	}
	if *diagram > 0 {
		cfg.TraceDepth = *diagram
	}
	if *vcdOut != "" || *interactive {
		cfg.TraceDepth = -1
	}
	proc, err := asc.New(cfg, prog)
	if err != nil {
		fatal(err)
	}
	if *dataFile != "" {
		rows, err := loadDataFile(*dataFile, *pes)
		if err != nil {
			fatal(err)
		}
		if err := proc.LoadLocalMem(rows); err != nil {
			fatal(err)
		}
	}
	if *describe {
		fmt.Print(proc.Describe())
	}
	if *interactive {
		if err := proc.Debug(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	stats, err := proc.Run(*maxCycles)
	if err != nil {
		fatal(err)
	}
	fmt.Print(asc.FormatStats(stats))
	if *diagram > 0 {
		fmt.Println("\npipeline diagram:")
		fmt.Print(proc.PipelineDiagram())
	}
	if *vcdOut != "" {
		if err := os.WriteFile(*vcdOut, []byte(proc.VCD()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote waveform to %s\n", *vcdOut)
	}
	if *dump > 0 {
		// Clamp to the scalar memory; New accepted cfg, so Geometry cannot fail.
		geom, _ := cfg.Geometry()
		fmt.Println("\nscalar memory:")
		for i := 0; i < min(*dump, geom.ScalarMemWords); i++ {
			fmt.Printf("  [%3d] %d\n", i, proc.ScalarMem(i))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ascsim:", err)
	os.Exit(1)
}
