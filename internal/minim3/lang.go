// Package minim3 implements a small Modula-3-flavoured source language —
// integers, procedures, TRY/EXCEPT, RAISE — and compiles it to C-- under
// three different exception-handling policies:
//
//   - PolicyCutting: the exception-stack implementation of Appendix A.2
//     (Figure 10): entering a handler scope pushes a continuation onto a
//     dynamic exception stack; RAISE pops and cuts. Constant-time
//     dispatch, small cost per scope entry/exit.
//
//   - PolicyUnwinding: the zero-normal-case-overhead implementation of
//     Appendix A.1 (Figures 8/9): call sites carry also-unwinds-to
//     annotations and static exception descriptors; RAISE yields to the
//     front-end run-time system, which walks the stack.
//
//   - PolicyNativeUnwind: compiled stack unwinding via alternate returns
//     (§4.2, return <m/n> and the branch-table method): every procedure
//     has one abnormal return continuation carrying (tag, argument);
//     RAISE returns abnormally, and every call site dispatches or
//     propagates in generated code. No run-time system involvement.
//
// The paper's fourth technique, continuation-passing style, is exercised
// by a hand-written example and benchmark rather than a compiler policy,
// mirroring the paper, which says CPS "requires no further explanation"
// and discusses only the other three.
//
// All three policies produce observationally equivalent programs; the
// property tests check this, and the benchmarks reproduce the cost-model
// differences the paper describes.
package minim3

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"cmm/internal/diag"
)

// Policy selects the exception-implementation strategy.
type Policy int

// Policies.
const (
	PolicyCutting Policy = iota
	PolicyUnwinding
	PolicyNativeUnwind
)

func (p Policy) String() string {
	switch p {
	case PolicyCutting:
		return "cutting"
	case PolicyUnwinding:
		return "unwinding"
	case PolicyNativeUnwind:
		return "native-unwind"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// --- AST ---

// Program is a parsed MiniM3 compilation unit.
type Program struct {
	File       string // source file name, stamped into diagnostics
	Vars       []*VarDecl
	Exceptions []*ExnDecl
	Procs      []*ProcDecl
}

// VarDecl is a global integer variable.
type VarDecl struct {
	Name string
	Init int64
	Line int
}

// ExnDecl declares an exception; every exception may carry one integer
// argument.
type ExnDecl struct {
	Name string
	Tag  uint64 // assigned by the checker
	Line int
}

// ProcDecl is a procedure; all parameters and the result are integers.
type ProcDecl struct {
	Name   string
	Params []string
	Locals []string // collected by the checker
	Body   []Stmt
	Line   int
}

// Stmt is a MiniM3 statement.
type Stmt interface{ stmt() }

// AssignStmt assigns to a variable.
type AssignStmt struct {
	Name string
	X    Expr
	Line int
}

// CallStmt calls a procedure for effect.
type CallStmt struct {
	Proc string
	Args []Expr
	Line int
}

// IfStmt is a conditional.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// WhileStmt is a loop.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
}

// ReturnStmt returns a value (0 when X is nil).
type ReturnStmt struct {
	X Expr
}

// RaiseStmt raises an exception with an optional argument.
type RaiseStmt struct {
	Exn  string
	Arg  Expr // nil for none
	Line int
}

// TryStmt is TRY body EXCEPT clauses END, or TRY body FINALLY cleanup
// END (exactly one of Clauses/Finally is set). A finally block runs on
// both normal and exceptional exit; on the exceptional path the pending
// exception is re-raised afterwards.
type TryStmt struct {
	Body    []Stmt
	Clauses []*ExceptClause
	Finally []Stmt
	Line    int
}

// ExceptClause handles one exception; Param binds its argument when
// nonempty.
type ExceptClause struct {
	Exn   string
	Param string
	Body  []Stmt
	Line  int
}

func (*AssignStmt) stmt() {}
func (*CallStmt) stmt()   {}
func (*IfStmt) stmt()     {}
func (*WhileStmt) stmt()  {}
func (*ReturnStmt) stmt() {}
func (*RaiseStmt) stmt()  {}
func (*TryStmt) stmt()    {}

// Expr is a MiniM3 expression.
type Expr interface{ expr() }

// IntExpr is an integer literal.
type IntExpr struct{ Val int64 }

// NameExpr references a variable or parameter.
type NameExpr struct {
	Name string
	Line int
}

// CallExpr calls a procedure for its result.
type CallExpr struct {
	Proc string
	Args []Expr
	Line int
}

// BinOpExpr applies a binary operator: + - * / % == != < <= > >= && ||.
type BinOpExpr struct {
	Op   string
	X, Y Expr
}

// NegExpr negates.
type NegExpr struct{ X Expr }

func (*IntExpr) expr()   {}
func (*NameExpr) expr()  {}
func (*CallExpr) expr()  {}
func (*BinOpExpr) expr() {}
func (*NegExpr) expr()   {}

// --- Lexer + parser ---

type token struct {
	kind string // "ident", "int", "punct", "eof"
	text string
	val  int64
	line int
	col  int
}

type lexer struct {
	src       string
	file      string
	pos       int
	line      int
	lineStart int // byte offset of the current line's first character
}

func (l *lexer) col() int { return l.pos - l.lineStart + 1 }

func (l *lexer) errf(col int, format string, args ...any) error {
	return diag.Errorf(PassM3Parse, l.file, l.line, col, format, args...)
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
			l.lineStart = l.pos
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: "eof", line: l.line, col: l.col()}, nil
scan:
	c := rune(l.src[l.pos])
	start := l.pos
	col := l.col()
	switch {
	case c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z'): // as isWordByte
		for l.pos < len(l.src) && (isWordByte(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: "ident", text: l.src[start:l.pos], line: l.line, col: col}, nil
	case unicode.IsDigit(c):
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			l.pos++
		}
		v, err := strconv.ParseInt(l.src[start:l.pos], 10, 64)
		if err != nil {
			return token{}, l.errf(col, "bad integer %q", l.src[start:l.pos])
		}
		return token{kind: "int", val: v, line: l.line, col: col}, nil
	}
	// Punctuation, longest first.
	for _, p := range []string{"==", "!=", "<=", ">=", "&&", "||", "+", "-", "*", "/", "%",
		"<", ">", "=", "(", ")", "{", "}", ",", ";"} {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.pos += len(p)
			return token{kind: "punct", text: p, line: l.line, col: col}, nil
		}
	}
	return token{}, l.errf(col, "unexpected character %q", c)
}

func isWordByte(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

type parser struct {
	lex  *lexer
	file string
	tok  token
	nxt  token
}

// Parse parses MiniM3 source.
func Parse(src string) (*Program, error) { return ParseFile("", src) }

// ParseFile parses MiniM3 source, stamping file into every diagnostic
// and into the resulting Program.
func ParseFile(file, src string) (*Program, error) {
	p := &parser{lex: &lexer{src: src, file: file, line: 1}, file: file}
	var err error
	if p.tok, err = p.lex.next(); err != nil {
		return nil, err
	}
	if p.nxt, err = p.lex.next(); err != nil {
		return nil, err
	}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	prog.File = file
	return prog, nil
}

func (p *parser) advance() error {
	p.tok = p.nxt
	var err error
	p.nxt, err = p.lex.next()
	return err
}

func (p *parser) errf(format string, args ...any) error {
	return diag.Errorf(PassM3Parse, p.file, p.tok.line, p.tok.col, format, args...)
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != "punct" || p.tok.text != s {
		return p.errf("expected %q, found %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != "ident" {
		return "", p.errf("expected identifier, found %q", p.tok.text)
	}
	name := p.tok.text
	return name, p.advance()
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == "ident" && p.tok.text == kw
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.tok.kind != "eof" {
		line := p.tok.line
		switch {
		case p.isKeyword("var"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			vd := &VarDecl{Name: name, Line: line}
			if p.tok.kind == "punct" && p.tok.text == "=" {
				if err := p.advance(); err != nil {
					return nil, err
				}
				neg := false
				if p.tok.kind == "punct" && p.tok.text == "-" {
					neg = true
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
				if p.tok.kind != "int" {
					return nil, p.errf("global initializer must be an integer literal")
				}
				vd.Init = p.tok.val
				if neg {
					vd.Init = -vd.Init
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			prog.Vars = append(prog.Vars, vd)
		case p.isKeyword("exception"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			prog.Exceptions = append(prog.Exceptions, &ExnDecl{Name: name, Line: line})
		case p.isKeyword("proc"):
			proc, err := p.parseProc()
			if err != nil {
				return nil, err
			}
			prog.Procs = append(prog.Procs, proc)
		default:
			return nil, p.errf("expected var, exception, or proc; found %q", p.tok.text)
		}
	}
	return prog, nil
}

func (p *parser) parseProc() (*ProcDecl, error) {
	line := p.tok.line
	if err := p.advance(); err != nil { // proc
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	proc := &ProcDecl{Name: name, Line: line}
	for !(p.tok.kind == "punct" && p.tok.text == ")") {
		param, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		proc.Params = append(proc.Params, param)
		if p.tok.kind == "punct" && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.advance(); err != nil { // )
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	proc.Body = body
	return proc, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !(p.tok.kind == "punct" && p.tok.text == "}") {
		if p.tok.kind == "eof" {
			return nil, p.errf("unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, p.advance() // }
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.tok.line
	switch {
	case p.isKeyword("var"):
		// Local declaration sugar: "var x = e;" becomes an assignment;
		// the checker collects locals.
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		var x Expr = &IntExpr{Val: 0}
		if p.tok.kind == "punct" && p.tok.text == "=" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &AssignStmt{Name: name, X: x, Line: line}, nil
	case p.isKeyword("if"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		s := &IfStmt{Cond: cond, Then: then}
		if p.isKeyword("else") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isKeyword("if") {
				inner, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				s.Else = []Stmt{inner}
			} else {
				s.Else, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return s, nil
	case p.isKeyword("while"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil
	case p.isKeyword("return"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		s := &ReturnStmt{}
		if !(p.tok.kind == "punct" && p.tok.text == ";") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.X = x
		}
		return s, p.expectPunct(";")
	case p.isKeyword("raise"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s := &RaiseStmt{Exn: name, Line: line}
		if p.tok.kind == "punct" && p.tok.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			s.Arg, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		return s, p.expectPunct(";")
	case p.isKeyword("try"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		s := &TryStmt{Body: body, Line: line}
		if p.isKeyword("finally") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			fin, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			s.Finally = fin
			return s, nil
		}
		for p.isKeyword("except") {
			clLine := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			exn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cl := &ExceptClause{Exn: exn, Line: clLine}
			if p.tok.kind == "punct" && p.tok.text == "(" {
				if err := p.advance(); err != nil {
					return nil, err
				}
				cl.Param, err = p.expectIdent()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
			cl.Body, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
			s.Clauses = append(s.Clauses, cl)
		}
		if len(s.Clauses) == 0 {
			return nil, p.errf("try without except clauses or finally")
		}
		return s, nil
	case p.tok.kind == "ident":
		name := p.tok.text
		if p.nxt.kind == "punct" && p.nxt.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallStmt{Proc: name, Args: args, Line: line}, p.expectPunct(";")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Name: name, X: x, Line: line}, p.expectPunct(";")
	}
	return nil, p.errf("expected statement, found %q", p.tok.text)
}

func (p *parser) parseArgs() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expr
	for !(p.tok.kind == "punct" && p.tok.text == ")") {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.tok.kind == "punct" && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	return args, p.advance()
}

var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBin(1) }

func (p *parser) parseBin(min int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == "punct" {
		prec, ok := binPrec[p.tok.text]
		if !ok || prec < min {
			break
		}
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinOpExpr{Op: op, X: lhs, Y: rhs}
	}
	return lhs, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tok.kind == "punct" && p.tok.text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NegExpr{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == "int":
		v := p.tok.val
		return &IntExpr{Val: v}, p.advance()
	case p.tok.kind == "ident":
		name := p.tok.text
		line := p.tok.line
		if p.nxt.kind == "punct" && p.nxt.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Proc: name, Args: args, Line: line}, nil
		}
		return &NameExpr{Name: name, Line: line}, p.advance()
	case p.tok.kind == "punct" && p.tok.text == "(":
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return x, p.expectPunct(")")
	}
	return nil, p.errf("expected expression, found %q", p.tok.text)
}
