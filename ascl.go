package asc

import (
	"repro/internal/ascl"
)

// CompileASCL compiles an ASCL source program (the associative data-parallel
// language in the spirit of Potter's ASC language; see internal/ascl for the
// grammar) into an executable Program, also returning the generated MTASC
// assembly text.
//
//	prog, asmText, err := asc.CompileASCL(`
//	    parallel v = pread(0);
//	    write(0, maxval(v));
//	`)
//
// ASCL in one paragraph: `scalar`, `parallel`, and `flag` variables mirror
// the hardware's three register spaces; `where (cond) { } elsewhere { }`
// is masked parallel execution; `foreach (cond) { ... this(v) ... }`
// iterates responders one at a time through the resolver; reductions are
// the builtins sumval/maxval/minval/maxvalu/minvalu/orval/andval/countval/
// anyval; idx() is the PE index; read/write access control-unit memory and
// pread/pwrite access PE local memory.
func CompileASCL(src string) (*Program, string, error) {
	res, err := ascl.Compile(src)
	if err != nil {
		return nil, "", err
	}
	p, err := newProgram(res.Program)
	if err != nil {
		return nil, "", err
	}
	return p, res.Asm, nil
}
