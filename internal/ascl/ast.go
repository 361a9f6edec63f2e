package ascl

import (
	"fmt"
	"strconv"
)

// Type is the value space of an ASCL expression, matching the hardware's
// three register files.
type Type uint8

const (
	// TypeScalar values live in the control unit.
	TypeScalar Type = iota
	// TypeParallel values have one instance per PE.
	TypeParallel
	// TypeFlag values are one bit per PE (responder sets).
	TypeFlag
)

func (t Type) String() string {
	switch t {
	case TypeScalar:
		return "scalar"
	case TypeParallel:
		return "parallel"
	case TypeFlag:
		return "flag"
	}
	return "?"
}

// Expressions.

type expr interface{ exprNode() }

type numLit struct {
	v    int64
	line int
}

type varRef struct {
	name string
	line int
}

type binary struct {
	op   string
	l, r expr
	line int
}

type unary struct {
	op   string
	x    expr
	line int
}

type call struct {
	name string
	args []expr
	line int
}

func (numLit) exprNode() {}
func (varRef) exprNode() {}
func (binary) exprNode() {}
func (unary) exprNode()  {}
func (call) exprNode()   {}

// Statements.

type stmt interface{ stmtNode() }

type declStmt struct {
	typ  Type
	name string
	init expr // optional, scalar only
	line int
}

type assignStmt struct {
	name  string
	value expr
	line  int
}

type ifStmt struct {
	cond      expr
	then, els []stmt
	line      int
}

type whileStmt struct {
	cond expr
	body []stmt
	line int
}

type whereStmt struct {
	cond      expr
	then, els []stmt
	line      int
}

type foreachStmt struct {
	cond expr
	body []stmt
	line int
}

type callStmt struct {
	call call
	line int
}

type haltStmt struct{ line int }

func (declStmt) stmtNode()    {}
func (assignStmt) stmtNode()  {}
func (ifStmt) stmtNode()      {}
func (whileStmt) stmtNode()   {}
func (whereStmt) stmtNode()   {}
func (foreachStmt) stmtNode() {}
func (callStmt) stmtNode()    {}
func (haltStmt) stmtNode()    {}

// Parser: recursive descent with precedence climbing for expressions.

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) accept(text string) bool {
	if p.cur().text == text && (p.cur().kind == tokPunct || p.cur().kind == tokKeyword) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errorf(p.cur(), "expected %q, found %q", text, p.cur().text)
	}
	return nil
}

// parseProgram parses a whole source file.
func parseProgram(toks []token) ([]stmt, error) {
	p := &parser{toks: toks}
	var stmts []stmt
	for p.cur().kind != tokEOF {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) block() ([]stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var stmts []stmt
	for !p.accept("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errorf(p.cur(), "unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

// condBlock parses the "( cond ) block" that follows if, while, where and
// foreach.
func (p *parser) condBlock() (expr, []stmt, error) {
	if err := p.expect("("); err != nil {
		return nil, nil, err
	}
	cond, err := p.expression(0)
	if err != nil {
		return nil, nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, nil, err
	}
	body, err := p.block()
	return cond, body, err
}

// elseBlock parses the optional "kw block" that ends an if (kw "else") or
// a where (kw "elsewhere"). An if after else chains: the nested if is the
// else block.
func (p *parser) elseBlock(kw string) ([]stmt, error) {
	if !p.accept(kw) {
		return nil, nil
	}
	if kw == "else" && p.cur().kind == tokKeyword && p.cur().text == "if" {
		nested, err := p.statement()
		return []stmt{nested}, err
	}
	return p.block()
}

func (p *parser) statement() (stmt, error) {
	t := p.cur()
	switch {
	case t.kind == tokKeyword && (t.text == "scalar" || t.text == "parallel" || t.text == "flag"):
		p.pos++
		typ := map[string]Type{"scalar": TypeScalar, "parallel": TypeParallel, "flag": TypeFlag}[t.text]
		name := p.cur()
		if name.kind != tokIdent {
			return nil, p.errorf(name, "expected variable name after %q", t.text)
		}
		p.pos++
		d := declStmt{typ: typ, name: name.text, line: t.line}
		if p.accept("=") {
			e, err := p.expression(0)
			if err != nil {
				return nil, err
			}
			d.init = e
		}
		return d, p.expect(";")

	case t.kind == tokKeyword && t.text == "if":
		p.pos++
		cond, then, err := p.condBlock()
		if err != nil {
			return nil, err
		}
		els, err := p.elseBlock("else")
		if err != nil {
			return nil, err
		}
		return ifStmt{cond: cond, then: then, els: els, line: t.line}, nil

	case t.kind == tokKeyword && t.text == "while":
		p.pos++
		cond, body, err := p.condBlock()
		if err != nil {
			return nil, err
		}
		return whileStmt{cond: cond, body: body, line: t.line}, nil

	case t.kind == tokKeyword && t.text == "where":
		p.pos++
		cond, then, err := p.condBlock()
		if err != nil {
			return nil, err
		}
		els, err := p.elseBlock("elsewhere")
		if err != nil {
			return nil, err
		}
		return whereStmt{cond: cond, then: then, els: els, line: t.line}, nil

	case t.kind == tokKeyword && t.text == "foreach":
		p.pos++
		cond, body, err := p.condBlock()
		if err != nil {
			return nil, err
		}
		return foreachStmt{cond: cond, body: body, line: t.line}, nil

	case t.kind == tokKeyword && t.text == "halt":
		p.pos++
		return haltStmt{line: t.line}, p.expect(";")

	case t.kind == tokIdent && p.peek().text == "=":
		name := t.text
		p.pos += 2
		e, err := p.expression(0)
		if err != nil {
			return nil, err
		}
		return assignStmt{name: name, value: e, line: t.line}, p.expect(";")

	case t.kind == tokIdent && p.peek().text == "(":
		e, err := p.expression(0)
		if err != nil {
			return nil, err
		}
		c, ok := e.(call)
		if !ok {
			return nil, p.errorf(t, "expression statement must be a call")
		}
		return callStmt{call: c, line: t.line}, p.expect(";")
	}
	return nil, p.errorf(t, "unexpected %q", t.text)
}

// Operator precedence (higher binds tighter).
var precedence = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"|": 5, "^": 6, "&": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) expression(minPrec int) (expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur()
		prec, isOp := precedence[op.text]
		if op.kind != tokPunct || !isOp || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.expression(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = binary{op: op.text, l: lhs, r: rhs, line: op.line}
	}
}

func (p *parser) unaryExpr() (expr, error) {
	t := p.cur()
	if t.kind == tokPunct && (t.text == "-" || t.text == "!") {
		p.pos++
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return unary{op: t.text, x: x, line: t.line}, nil
	}
	return p.primary()
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseInt(t.text, 0, 64)
		if err != nil {
			return nil, p.errorf(t, "bad number %q", t.text)
		}
		return numLit{v: v, line: t.line}, nil

	case t.kind == tokIdent && p.peek().text == "(":
		name := t.text
		p.pos += 2 // ident (
		var args []expr
		if !p.accept(")") {
			for {
				a, err := p.expression(0)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.accept(")") {
					break
				}
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
		}
		return call{name: name, args: args, line: t.line}, nil

	case t.kind == tokIdent:
		p.pos++
		return varRef{name: t.text, line: t.line}, nil

	case t.text == "(":
		p.pos++
		e, err := p.expression(0)
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	}
	return nil, p.errorf(t, "unexpected %q in expression", t.text)
}
