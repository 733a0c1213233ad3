package syntax

// Parser is a recursive-descent parser for C--.
type Parser struct {
	lex  *Lexer
	file string
	tok  Token // current token
	nxt  Token // one token of lookahead
	err  error
}

// Parse parses a complete C-- compilation unit.
func Parse(src string) (*Program, error) { return ParseFile("", src) }

// ParseFile parses a complete C-- compilation unit, stamping file into
// every diagnostic and into the resulting Program.
func ParseFile(file, src string) (*Program, error) {
	p := &Parser{lex: NewFileLexer(file, src), file: file}
	// Prime tok and nxt.
	p.advance()
	p.advance()
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	prog.File = file
	return prog, nil
}

func (p *Parser) advance() {
	if p.err != nil {
		// A lexer error ends the parse: every loop and recursion stops
		// at EOF, and errf reports the lexer's diagnostic.
		p.tok = Token{Kind: EOF}
		return
	}
	p.tok = p.nxt
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		p.nxt = Token{Kind: EOF}
		return
	}
	p.nxt = t
}

func (p *Parser) errf(format string, args ...any) error {
	if p.err != nil {
		return p.err
	}
	return ErrorAt(PassParse, p.file, p.tok.Pos, format, args...)
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.err != nil {
		return Token{}, p.err
	}
	if p.tok.Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.tok)
	}
	t := p.tok
	p.advance()
	return t, p.err
}

func (p *Parser) accept(k Kind) bool {
	if p.err == nil && p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.tok.Kind != EOF {
		if p.err != nil {
			return nil, p.err
		}
		switch {
		case p.tok.Kind == EXPORT:
			p.advance()
			names, err := p.parseNameList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			prog.Exports = append(prog.Exports, names...)
		case p.tok.Kind == IMPORT:
			p.advance()
			names, err := p.parseNameList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			prog.Imports = append(prog.Imports, names...)
		case p.tok.Kind == SECTION:
			sec, err := p.parseSection()
			if err != nil {
				return nil, err
			}
			prog.Data = append(prog.Data, sec)
		case p.tok.Kind == IDENT:
			if t, ok := TypeByName(p.tok.Text); ok {
				g, err := p.parseGlobal(t)
				if err != nil {
					return nil, err
				}
				prog.Globals = append(prog.Globals, g)
				continue
			}
			proc, err := p.parseProc()
			if err != nil {
				return nil, err
			}
			prog.Procs = append(prog.Procs, proc)
		default:
			return nil, p.errf("expected declaration, found %s", p.tok)
		}
	}
	return prog, p.err
}

func (p *Parser) parseNameList() ([]string, error) {
	var names []string
	for {
		t, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		names = append(names, t.Text)
		if !p.accept(COMMA) {
			return names, nil
		}
	}
}

func (p *Parser) parseGlobal(t Type) (*Global, error) {
	pos := p.tok.Pos
	p.advance() // type name
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	g := &Global{Pos: pos, Type: t, Name: name.Text}
	if p.accept(ASSIGN) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		g.Init = e
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *Parser) parseSection() (*DataSection, error) {
	pos := p.tok.Pos
	p.advance() // section
	nameTok, err := p.expect(STRING)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	sec := &DataSection{Pos: pos, Name: nameTok.Text}
	for p.tok.Kind != RBRACE {
		if p.err != nil {
			return nil, p.err
		}
		d, err := p.parseDatum()
		if err != nil {
			return nil, err
		}
		sec.Items = append(sec.Items, d)
	}
	p.advance() // }
	return sec, p.err
}

func (p *Parser) parseDatum() (*Datum, error) {
	label, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	d := &Datum{Pos: label.Pos, Label: label.Text}
	if p.tok.Kind == STRING {
		d.IsStr = true
		d.Str = p.tok.Text
		p.advance()
		_, err := p.expect(SEMI)
		return d, err
	}
	typeTok, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	t, ok := TypeByName(typeTok.Text)
	if !ok {
		return nil, ErrorAt(PassParse, p.file, typeTok.Pos, "%s is not a type", typeTok.Text)
	}
	d.Type = t
	if p.accept(LBRACKET) {
		n, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RBRACKET); err != nil {
			return nil, err
		}
		d.Reserve = int(n.Int)
		_, err = p.expect(SEMI)
		return d, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Values = append(d.Values, e)
		if !p.accept(COMMA) {
			break
		}
	}
	_, err = p.expect(SEMI)
	return d, err
}

func (p *Parser) parseProc() (*Proc, error) {
	nameTok, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	proc := &Proc{Pos: nameTok.Pos, Name: nameTok.Text}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	for p.tok.Kind != RPAREN {
		typeTok, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		t, ok := TypeByName(typeTok.Text)
		if !ok {
			return nil, ErrorAt(PassParse, p.file, typeTok.Pos, "%s is not a type", typeTok.Text)
		}
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		proc.Formals = append(proc.Formals, &Formal{Pos: id.Pos, Type: t, Name: id.Text})
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	proc.Body = body
	return proc, nil
}

func (p *Parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for p.tok.Kind != RBRACE {
		if p.err != nil {
			return nil, p.err
		}
		if p.tok.Kind == EOF {
			return nil, p.errf("unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.advance() // }
	return stmts, p.err
}

func (p *Parser) parseStmt() (Stmt, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case IDENT:
		if t, ok := TypeByName(p.tok.Text); ok && p.nxt.Kind == IDENT {
			// Local declaration: bits32 s, p;
			p.advance()
			names, err := p.parseNameList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			return &VarDecl{stmtBase: stmtBase{pos}, Type: t, Names: names}, nil
		}
		if p.nxt.Kind == COLON {
			name := p.tok.Text
			p.advance()
			p.advance()
			return &LabelStmt{stmtBase: stmtBase{pos}, Name: name}, nil
		}
		return p.parseExprLedStmt(pos)
	case CONTINUATION:
		p.advance()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		var formals []string
		if p.accept(LPAREN) {
			if p.tok.Kind != RPAREN {
				formals, err = p.parseNameList()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(COLON); err != nil {
			return nil, err
		}
		return &ContinuationStmt{stmtBase: stmtBase{pos}, Name: name.Text, Formals: formals}, nil
	case GOTO:
		p.advance()
		target, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		g := &GotoStmt{stmtBase: stmtBase{pos}, Target: target}
		if p.accept(TARGETS) {
			g.Targets, err = p.parseNameList()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return g, nil
	case JUMP:
		p.advance()
		callee, args, err := p.parseCallTail()
		if err != nil {
			return nil, err
		}
		annots, err := p.parseAnnotations()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &JumpStmt{stmtBase: stmtBase{pos}, Callee: callee, Args: args, Annots: annots}, nil
	case RETURN:
		p.advance()
		r := &ReturnStmt{stmtBase: stmtBase{pos}}
		if p.accept(LT) {
			i, err := p.expect(INT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SLASH); err != nil {
				return nil, err
			}
			n, err := p.expect(INT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(GT); err != nil {
				return nil, err
			}
			r.Index, r.Arity = int(i.Int), int(n.Int)
			if r.Index > r.Arity {
				return nil, ErrorAt(PassParse, p.file, pos, "return <%d/%d>: index exceeds continuation count", r.Index, r.Arity)
			}
		}
		if p.accept(LPAREN) {
			if p.tok.Kind != RPAREN {
				es, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				r.Results = es
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return r, nil
	case IF:
		return p.parseIf(pos)
	case CUT:
		p.advance()
		if _, err := p.expect(TO); err != nil {
			return nil, err
		}
		cont, args, err := p.parseCallTail()
		if err != nil {
			return nil, err
		}
		annots, err := p.parseAnnotations()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &CutStmt{stmtBase: stmtBase{pos}, Cont: cont, Args: args, Annots: annots}, nil
	case YIELD:
		p.advance()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		var args []Expr
		if p.tok.Kind != RPAREN {
			var err error
			args, err = p.parseExprList()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		annots, err := p.parseAnnotations()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &YieldStmt{stmtBase: stmtBase{pos}, Args: args, Annots: annots}, nil
	case PPRIM:
		return p.parseSolidCall(pos, nil)
	}
	return p.parseExprLedStmt(pos)
}

// parseCallTail parses "callee(args)" where callee is a primary-level
// expression.
func (p *Parser) parseCallTail() (Expr, []Expr, error) {
	callee, err := p.parsePrimary()
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, nil, err
	}
	var args []Expr
	if p.tok.Kind != RPAREN {
		args, err = p.parseExprList()
		if err != nil {
			return nil, nil, err
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, nil, err
	}
	return callee, args, nil
}

func (p *Parser) parseIf(pos Pos) (Stmt, error) {
	p.advance() // if
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{stmtBase: stmtBase{pos}, Cond: cond, Then: then}
	if p.accept(ELSE) {
		if p.tok.Kind == IF {
			elif, err := p.parseIf(p.tok.Pos)
			if err != nil {
				return nil, err
			}
			s.Else = []Stmt{elif}
		} else {
			s.Else, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// parseExprLedStmt handles statements that begin with an expression:
// calls with or without results, and (parallel) assignments.
func (p *Parser) parseExprLedStmt(pos Pos) (Stmt, error) {
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.tok.Kind {
	case LPAREN:
		// Call without results: f(args) annots ;
		p.advance()
		var args []Expr
		if p.tok.Kind != RPAREN {
			args, err = p.parseExprList()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		annots, err := p.parseAnnotations()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &CallStmt{stmtBase: stmtBase{pos}, Callee: first, Args: args, Annots: annots}, nil
	case COMMA, ASSIGN:
		lhs := []LValue{}
		lv, ok := first.(LValue)
		if !ok {
			return nil, ErrorAt(PassParse, p.file, first.Position(), "left side of = must be a variable or memory reference")
		}
		lhs = append(lhs, lv)
		for p.accept(COMMA) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			lv, ok := e.(LValue)
			if !ok {
				return nil, ErrorAt(PassParse, p.file, e.Position(), "left side of = must be a variable or memory reference")
			}
			lhs = append(lhs, lv)
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		if p.tok.Kind == PPRIM {
			return p.parseSolidCall(pos, lhs)
		}
		r1, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok.Kind == LPAREN {
			// Call with results: x, y = f(args) annots ;
			p.advance()
			var args []Expr
			if p.tok.Kind != RPAREN {
				args, err = p.parseExprList()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			annots, err := p.parseAnnotations()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			return &CallStmt{stmtBase: stmtBase{pos}, Results: lhs, Callee: r1, Args: args, Annots: annots}, nil
		}
		rhs := []Expr{r1}
		for p.accept(COMMA) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rhs = append(rhs, e)
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		if len(lhs) != len(rhs) {
			return nil, ErrorAt(PassParse, p.file, pos, "assignment arity mismatch: %d targets, %d values", len(lhs), len(rhs))
		}
		return &AssignStmt{stmtBase: stmtBase{pos}, LHS: lhs, RHS: rhs}, nil
	}
	return nil, p.errf("expected statement, found %s after expression", p.tok)
}

// parseSolidCall parses %%op(args) annots ; with optional results already
// parsed by the caller.
func (p *Parser) parseSolidCall(pos Pos, results []LValue) (Stmt, error) {
	name := p.tok.Text
	p.advance()
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var args []Expr
	var err error
	if p.tok.Kind != RPAREN {
		args, err = p.parseExprList()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	annots, err := p.parseAnnotations()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &CallStmt{stmtBase: stmtBase{pos}, Results: results, Solid: name, Args: args, Annots: annots}, nil
}

func (p *Parser) parseAnnotations() (Annotations, error) {
	var a Annotations
	for {
		switch p.tok.Kind {
		case ALSO:
			p.advance()
			switch p.tok.Kind {
			case CUTS:
				p.advance()
				if _, err := p.expect(TO); err != nil {
					return a, err
				}
				names, err := p.parseNameList()
				if err != nil {
					return a, err
				}
				a.CutsTo = append(a.CutsTo, names...)
			case UNWINDS:
				p.advance()
				if _, err := p.expect(TO); err != nil {
					return a, err
				}
				names, err := p.parseNameList()
				if err != nil {
					return a, err
				}
				a.UnwindsTo = append(a.UnwindsTo, names...)
			case RETURNS:
				p.advance()
				if _, err := p.expect(TO); err != nil {
					return a, err
				}
				names, err := p.parseNameList()
				if err != nil {
					return a, err
				}
				a.ReturnsTo = append(a.ReturnsTo, names...)
			case ABORTS:
				p.advance()
				a.Aborts = true
			default:
				return a, p.errf("expected cuts, unwinds, returns, or aborts after also")
			}
		case DESCRIPTORS:
			p.advance()
			if _, err := p.expect(LPAREN); err != nil {
				return a, err
			}
			es, err := p.parseExprList()
			if err != nil {
				return a, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return a, err
			}
			a.Descriptors = append(a.Descriptors, es...)
		default:
			return a, p.err
		}
	}
}

func (p *Parser) parseExprList() ([]Expr, error) {
	var es []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		es = append(es, e)
		if !p.accept(COMMA) {
			return es, nil
		}
	}
}

// Binary operator precedence, loosest first.
var precedence = map[Kind]int{
	OROR:   1,
	ANDAND: 2,
	PIPE:   3,
	CARET:  4,
	AMP:    5,
	EQ:     6, NE: 6,
	LT: 7, LE: 7, GT: 7, GE: 7,
	SHL: 8, SHR: 8,
	PLUS: 9, MINUS: 9,
	STAR: 10, SLASH: 10, PERCENT: 10,
}

func (p *Parser) parseExpr() (Expr, error) {
	return p.parseBinary(1)
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := precedence[p.tok.Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.tok.Kind
		pos := p.tok.Pos
		p.advance()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{exprBase: exprBase{Pos: pos}, Op: op, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case MINUS, TILDE, NOT:
		op := p.tok.Kind
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{exprBase: exprBase{Pos: pos}, Op: op, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case INT:
		v := p.tok.Int
		p.advance()
		return &IntLit{exprBase: exprBase{Pos: pos}, Val: v}, nil
	case FLOAT:
		v := p.tok.Flt
		p.advance()
		return &FloatLit{exprBase: exprBase{Pos: pos}, Val: v}, nil
	case STRING:
		s := p.tok.Text
		p.advance()
		return &StrLit{exprBase: exprBase{Pos: pos}, Val: s}, nil
	case IDENT:
		name := p.tok.Text
		if t, ok := TypeByName(name); ok && p.nxt.Kind == LBRACKET {
			p.advance()
			p.advance() // [
			addr, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACKET); err != nil {
				return nil, err
			}
			return &MemExpr{exprBase: exprBase{Pos: pos, Ty: t}, Addr: addr}, nil
		}
		p.advance()
		return &VarExpr{exprBase: exprBase{Pos: pos}, Name: name}, nil
	case PRIM:
		name := p.tok.Text
		p.advance()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		var args []Expr
		if p.tok.Kind != RPAREN {
			var err error
			args, err = p.parseExprList()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &PrimExpr{exprBase: exprBase{Pos: pos}, Name: name, Args: args}, nil
	case LPAREN:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected expression, found %s", p.tok)
}
