// Package check performs semantic analysis of parsed C-- programs: name
// resolution, scope rules for weak continuations (§4.1), call-site
// annotation validity (§4.4), and the modest type checking the paper
// prescribes (§3.1). In keeping with the paper, calls are NOT checked for
// argument count or types — "C-- does not check the number or types of
// arguments passed to a procedure"; that freedom is what lets one call
// site serve many calling conventions.
package check

import (
	"slices"
	"sort"

	"cmm/internal/diag"
	"cmm/internal/syntax"
)

// Symbol is a resolved name. Slot is a global's index in the program's
// globals and a procedure's in its procedures, both in source order, and
// an import's index in Info.Foreign.
type Symbol struct {
	Kind syntax.Ref
	Name string
	Type syntax.Type
	Slot int
}

// ProcInfo is the checker's result for one procedure.
type ProcInfo struct {
	Proc   *syntax.Proc
	Locals map[string]*Symbol                  // formals and declared locals
	Conts  map[string]*syntax.ContinuationStmt // continuations by name
	Labels map[string]*syntax.LabelStmt        // labels by name
}

// Info is the checker's result for a program. The type of every
// expression and the resolution of every variable reference are
// recorded on the syntax nodes themselves (syntax.Expr.Type,
// syntax.VarExpr.Ref).
type Info struct {
	Program *syntax.Program
	Globals map[string]*Symbol
	Procs   map[string]*ProcInfo
	// Foreign is the foreign table: the imports that name no procedure,
	// each once, in source order. An import's slot indexes it.
	Foreign []string
}

// ErrorList is a list of positioned semantic diagnostics (pass "check").
type ErrorList = diag.List

// PassCheck names the pass that semantic diagnostics carry.
const PassCheck = "check"

// Primitives lists the primitive operators (§4.3) known to this
// implementation, mapping name to (argument count, mayFail). Fast variants
// are written %op; every primitive also has a slow-but-solid %%op call
// form whose failure becomes a yield.
var Primitives = map[string]struct {
	Args    int
	MayFail bool
}{
	"divu": {2, true},  // unsigned divide; fails on zero divisor
	"divs": {2, true},  // signed divide; fails on zero divisor or overflow
	"remu": {2, true},  // unsigned remainder
	"rems": {2, true},  // signed remainder
	"mulu": {2, false}, // unsigned multiply (low word)
	"muls": {2, false}, // signed multiply (low word)
	"neg":  {1, false}, // arithmetic negation
	"com":  {1, false}, // bitwise complement
	"f2i":  {1, true},  // float to int conversion; fails on NaN/overflow
	"i2f":  {1, false}, // int to float conversion
}

// PrimNames returns the primitive names in sorted order, for diagnostics.
func PrimNames() []string {
	names := make([]string, 0, len(Primitives))
	for n := range Primitives {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type checker struct {
	info *Info
	errs ErrorList
	// Current procedure state.
	proc *ProcInfo
}

func (c *checker) errf(pos syntax.Pos, format string, args ...any) {
	c.errs = append(c.errs, syntax.ErrorAt(PassCheck, c.info.Program.File, pos, format, args...))
}

// Check analyses prog and returns the collected semantic information. The
// returned error, if non-nil, is an ErrorList.
func Check(prog *syntax.Program) (*Info, error) {
	c := &checker{info: &Info{
		Program: prog,
		Globals: map[string]*Symbol{},
		Procs:   map[string]*ProcInfo{},
	}}
	c.collectGlobals()
	for _, p := range prog.Procs {
		c.checkProc(p)
	}
	if len(c.errs) > 0 {
		return c.info, c.errs
	}
	return c.info, nil
}

func (c *checker) declareGlobal(pos syntax.Pos, sym *Symbol) {
	if old, ok := c.info.Globals[sym.Name]; ok {
		c.errf(pos, "%s %s redeclared (previously a %s)", sym.Kind, sym.Name, old.Kind)
		return
	}
	c.info.Globals[sym.Name] = sym
}

func (c *checker) collectGlobals() {
	prog := c.info.Program
	// First declare every top-level name, so that initializers may refer
	// to names defined later in the file (e.g. data holding procedure
	// pointers).
	for i, g := range prog.Globals {
		c.declareGlobal(g.Pos, &Symbol{Kind: syntax.RefGlobal, Name: g.Name, Type: g.Type, Slot: i})
	}
	for _, d := range prog.Data {
		for _, it := range d.Items {
			c.declareGlobal(it.Pos, &Symbol{Kind: syntax.RefData, Name: it.Label, Type: syntax.Word})
		}
	}
	for i, p := range prog.Procs {
		c.declareGlobal(p.Pos, &Symbol{Kind: syntax.RefProc, Name: p.Name, Type: syntax.Word, Slot: i})
	}
	// An import that names a procedure is that procedure; any other
	// takes the next foreign slot, even when a global or data label of
	// its name shadows it.
	for _, im := range prog.Imports {
		sym, declared := c.info.Globals[im]
		if declared && sym.Kind == syntax.RefProc || slices.Contains(c.info.Foreign, im) {
			continue
		}
		if !declared {
			c.info.Globals[im] = &Symbol{Kind: syntax.RefImport, Name: im, Type: syntax.Word, Slot: len(c.info.Foreign)}
		}
		c.info.Foreign = append(c.info.Foreign, im)
	}
	for _, ex := range prog.Exports {
		if _, ok := c.info.Globals[ex]; !ok {
			c.errf(syntax.Pos{}, "exported name %s is not defined", ex)
		}
	}
	// Then check initializers.
	for _, g := range prog.Globals {
		if g.Init != nil {
			c.checkExpr(g.Init, g.Type)
			if !isConst(g.Init) {
				c.errf(g.Pos, "initializer for global %s must be a constant", g.Name)
			}
		}
	}
	for _, d := range prog.Data {
		for _, it := range d.Items {
			for _, v := range it.Values {
				c.checkExpr(v, it.Type)
				if !isConstOrName(v) {
					c.errf(it.Pos, "datum %s: initializers must be constants or names", it.Label)
				}
			}
		}
	}
}

// isConst reports whether e is a literal constant expression.
func isConst(e syntax.Expr) bool {
	switch e := e.(type) {
	case *syntax.IntLit, *syntax.FloatLit, *syntax.StrLit:
		return true
	case *syntax.UnExpr:
		return isConst(e.X)
	case *syntax.BinExpr:
		return isConst(e.X) && isConst(e.Y)
	}
	return false
}

// isConstOrName additionally allows bare names (labels, procedures) so
// data can hold code and data pointers.
func isConstOrName(e syntax.Expr) bool {
	if _, ok := e.(*syntax.VarExpr); ok {
		return true
	}
	return isConst(e)
}

func (c *checker) checkProc(p *syntax.Proc) {
	pi := &ProcInfo{
		Proc:   p,
		Locals: map[string]*Symbol{},
		Conts:  map[string]*syntax.ContinuationStmt{},
		Labels: map[string]*syntax.LabelStmt{},
	}
	if _, dup := c.info.Procs[p.Name]; dup {
		c.errf(p.Pos, "procedure %s redefined", p.Name)
	}
	c.info.Procs[p.Name] = pi
	c.proc = pi
	for _, f := range p.Formals {
		if _, dup := pi.Locals[f.Name]; dup {
			c.errf(f.Pos, "duplicate parameter %s", f.Name)
			continue
		}
		pi.Locals[f.Name] = &Symbol{Kind: syntax.RefLocal, Name: f.Name, Type: f.Type}
	}
	// First pass: collect declarations, labels, continuations (they are
	// visible throughout the procedure, including before their textual
	// position).
	c.collectBody(p.Body)
	// Second pass: resolve and type-check statements.
	c.checkStmts(p.Body)
	c.proc = nil
}

func (c *checker) collectBody(body []syntax.Stmt) {
	pi := c.proc
	for _, s := range body {
		switch s := s.(type) {
		case *syntax.VarDecl:
			for _, n := range s.Names {
				if _, dup := pi.Locals[n]; dup {
					c.errf(s.Position(), "variable %s redeclared", n)
					continue
				}
				pi.Locals[n] = &Symbol{Kind: syntax.RefLocal, Name: n, Type: s.Type}
			}
		case *syntax.LabelStmt:
			if _, dup := pi.Labels[s.Name]; dup {
				c.errf(s.Position(), "label %s redeclared", s.Name)
				continue
			}
			pi.Labels[s.Name] = s
		case *syntax.ContinuationStmt:
			if _, dup := pi.Conts[s.Name]; dup {
				c.errf(s.Position(), "continuation %s redeclared", s.Name)
				continue
			}

			pi.Conts[s.Name] = s
		case *syntax.IfStmt:
			c.collectBody(s.Then)
			c.collectBody(s.Else)
		}
	}
}

func (c *checker) checkStmts(body []syntax.Stmt) {
	for _, s := range body {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s syntax.Stmt) {
	switch s := s.(type) {
	case *syntax.VarDecl, *syntax.LabelStmt:
		// Handled in collectBody.
	case *syntax.ContinuationStmt:
		if _, isVar := c.proc.Locals[s.Name]; isVar {
			c.errf(s.Position(), "continuation %s has the name of a variable", s.Name)
		}
		// Continuation formals must be variables of the enclosing
		// procedure; they are not binding instances (§4.1).
		for _, f := range s.Formals {
			if _, ok := c.proc.Locals[f]; !ok {
				c.errf(s.Position(), "continuation %s: parameter %s is not a variable of the enclosing procedure", s.Name, f)
			}
		}
	case *syntax.AssignStmt:
		for i, l := range s.LHS {
			lt := c.checkLValue(l)
			if i < len(s.RHS) {
				c.checkExpr(s.RHS[i], lt)
				rt := s.RHS[i].Type()
				if lt != (syntax.Type{}) && rt != (syntax.Type{}) && lt != rt {
					c.errf(s.Position(), "cannot assign %s value to %s location", rt, lt)
				}
			}
		}
	case *syntax.CallStmt:
		if s.Solid != "" {
			pr, ok := Primitives[s.Solid]
			if !ok {
				c.errf(s.Position(), "unknown primitive %%%%%s", s.Solid)
			} else if len(s.Args) != pr.Args {
				c.errf(s.Position(), "%%%%%s expects %d arguments, got %d", s.Solid, pr.Args, len(s.Args))
			}
		} else {
			c.checkExpr(s.Callee, syntax.Word)
		}
		for _, a := range s.Args {
			c.checkExpr(a, syntax.Type{})
		}
		for _, r := range s.Results {
			c.checkLValue(r)
		}
		c.checkAnnots(s.Position(), s.Annots)
	case *syntax.IfStmt:
		c.checkExpr(s.Cond, syntax.Word)
		if t := s.Cond.Type(); t.Kind == syntax.FloatType {
			c.errf(s.Position(), "if condition must be a word value, not %s", t)
		}
		c.checkStmts(s.Then)
		c.checkStmts(s.Else)
	case *syntax.GotoStmt:
		if v, ok := s.Target.(*syntax.VarExpr); ok && len(s.Targets) == 0 {
			if _, isLabel := c.proc.Labels[v.Name]; isLabel {
				return // simple goto to a label
			}
		}
		// Computed goto: must statically list all possible targets (§3.2).
		c.checkExpr(s.Target, syntax.Word)
		if len(s.Targets) == 0 {
			c.errf(s.Position(), "computed goto must list its targets")
		}
		for _, t := range s.Targets {
			if _, ok := c.proc.Labels[t]; !ok {
				c.errf(s.Position(), "goto target %s is not a label in this procedure", t)
			}
		}
	case *syntax.JumpStmt:
		c.checkExpr(s.Callee, syntax.Word)
		for _, a := range s.Args {
			c.checkExpr(a, syntax.Type{})
		}
		c.checkAnnots(s.Position(), s.Annots)
	case *syntax.ReturnStmt:
		for _, r := range s.Results {
			c.checkExpr(r, syntax.Type{})
		}
	case *syntax.CutStmt:
		c.checkExpr(s.Cont, syntax.Word)
		for _, a := range s.Args {
			c.checkExpr(a, syntax.Type{})
		}
		c.checkAnnots(s.Position(), s.Annots)
		if len(s.Annots.UnwindsTo) > 0 || len(s.Annots.ReturnsTo) > 0 {
			c.errf(s.Position(), "cut to allows only also cuts to / also aborts annotations")
		}
	case *syntax.YieldStmt:
		for _, a := range s.Args {
			c.checkExpr(a, syntax.Type{})
		}
		c.checkAnnots(s.Position(), s.Annots)
	default:
		c.errf(s.Position(), "unhandled statement %T", s)
	}
}

// checkAnnots verifies that annotation names denote continuations declared
// in the same procedure as the call site (§4.4: "the annotations may not
// name variables or expressions").
func (c *checker) checkAnnots(pos syntax.Pos, a syntax.Annotations) {
	for _, group := range [][]string{a.CutsTo, a.UnwindsTo, a.ReturnsTo} {
		for _, name := range group {
			if _, ok := c.proc.Conts[name]; !ok {
				c.errf(pos, "annotation names %s, which is not a continuation declared in this procedure", name)
			}
		}
	}
	for _, d := range a.Descriptors {
		c.checkExpr(d, syntax.Word)
		if !isConstOrName(d) {
			c.errf(pos, "descriptors must be static: constants or names")
		}
	}
}

func (c *checker) checkLValue(l syntax.LValue) syntax.Type {
	switch l := l.(type) {
	case *syntax.VarExpr:
		if !c.resolve(l) {
			return syntax.Type{}
		}
		if l.Ref != syntax.RefLocal && l.Ref != syntax.RefGlobal {
			c.errf(l.Position(), "%s %s is not assignable", l.Ref, l.Name)
			return syntax.Type{}
		}
		return l.Ty
	case *syntax.MemExpr:
		c.checkExpr(l.Addr, syntax.Word)
		return l.Ty
	}
	return syntax.Type{}
}

// resolve records on v what it names, and its type: procedure locals and
// continuations shadow globals. It reports false for an undefined name.
func (c *checker) resolve(v *syntax.VarExpr) bool {
	if c.proc != nil {
		if sym, ok := c.proc.Locals[v.Name]; ok {
			v.Ref, v.Ty = syntax.RefLocal, sym.Type
			return true
		}
		if _, ok := c.proc.Conts[v.Name]; ok {
			v.Ref, v.Ty = syntax.RefCont, syntax.Word
			return true
		}
	}
	if sym, ok := c.info.Globals[v.Name]; ok {
		v.Ref, v.Ty, v.Slot = sym.Kind, sym.Type, sym.Slot
		return true
	}
	c.errf(v.Position(), "undefined name %s", v.Name)
	return false
}

// checkExpr types e; expected is the context type (zero when unknown) and
// is used only to give literals a width.
func (c *checker) checkExpr(e syntax.Expr, expected syntax.Type) {
	switch e := e.(type) {
	case *syntax.IntLit:
		t := expected
		if t == (syntax.Type{}) || t.Kind != syntax.BitsType {
			t = syntax.Word
		}
		e.Ty = t
		if t.Width < 64 && e.Val >= 1<<uint(t.Width) {
			c.errf(e.Position(), "literal %d does not fit in %s", e.Val, t)
		}
	case *syntax.FloatLit:
		t := expected
		if t == (syntax.Type{}) || t.Kind != syntax.FloatType {
			t = syntax.Type{Kind: syntax.FloatType, Width: 64}
		}
		e.Ty = t
	case *syntax.StrLit:
		e.Ty = syntax.Word
	case *syntax.VarExpr:
		c.resolve(e)
	case *syntax.MemExpr:
		c.checkExpr(e.Addr, syntax.Word)
		if at := e.Addr.Type(); at.Kind == syntax.FloatType {
			c.errf(e.Position(), "memory address must be a word value, not %s", at)
		}
	case *syntax.UnExpr:
		c.checkExpr(e.X, expected)
		xt := e.X.Type()
		switch e.Op {
		case syntax.TILDE, syntax.NOT:
			if xt.Kind == syntax.FloatType {
				c.errf(e.Position(), "operator %s requires a word operand, got %s", e.Op, xt)
			}
		}
		e.Ty = xt
	case *syntax.BinExpr:
		c.checkBin(e, expected)
	case *syntax.PrimExpr:
		pr, ok := Primitives[e.Name]
		if !ok {
			c.errf(e.Position(), "unknown primitive %%%s (known: %v)", e.Name, PrimNames())
		} else if len(e.Args) != pr.Args {
			c.errf(e.Position(), "%%%s expects %d arguments, got %d", e.Name, pr.Args, len(e.Args))
		}
		var t syntax.Type
		for i, a := range e.Args {
			c.checkExpr(a, expected)
			if i == 0 {
				t = a.Type()
			}
		}
		if t == (syntax.Type{}) {
			t = syntax.Word
		}
		e.Ty = t
	default:
		c.errf(e.Position(), "unhandled expression %T", e)
	}
}

func isComparison(op syntax.Kind) bool {
	switch op {
	case syntax.EQ, syntax.NE, syntax.LT, syntax.LE, syntax.GT, syntax.GE:
		return true
	}
	return false
}

func (c *checker) checkBin(e *syntax.BinExpr, expected syntax.Type) {
	operandCtx := expected
	if isComparison(e.Op) || e.Op == syntax.ANDAND || e.Op == syntax.OROR {
		operandCtx = syntax.Type{}
	}
	c.checkExpr(e.X, operandCtx)
	// Give the right operand the left's type as context so that
	// "n == 1" types the literal as n's type.
	xt := e.X.Type()
	yCtx := operandCtx
	if xt != (syntax.Type{}) {
		yCtx = xt
	}
	c.checkExpr(e.Y, yCtx)
	yt := e.Y.Type()

	// If the left operand was an un-contexted literal, retype it from the
	// right operand (e.g. "1 == n").
	if lx, ok := e.X.(*syntax.IntLit); ok && yt != (syntax.Type{}) && xt != yt && yt.Kind == syntax.BitsType {
		lx.Ty = yt
		xt = yt
	}

	if xt != (syntax.Type{}) && yt != (syntax.Type{}) && xt != yt {
		c.errf(e.Position(), "operator %s applied to mismatched types %s and %s", e.Op, xt, yt)
	}
	switch {
	case isComparison(e.Op):
		e.Ty = syntax.Word
	case e.Op == syntax.ANDAND || e.Op == syntax.OROR:
		if xt.Kind == syntax.FloatType || yt.Kind == syntax.FloatType {
			c.errf(e.Position(), "operator %s requires word operands", e.Op)
		}
		e.Ty = syntax.Word
	case e.Op == syntax.SHL || e.Op == syntax.SHR:
		if xt.Kind == syntax.FloatType {
			c.errf(e.Position(), "operator %s requires a word left operand", e.Op)
		}
		e.Ty = xt
	default:
		if (e.Op == syntax.AMP || e.Op == syntax.PIPE || e.Op == syntax.CARET || e.Op == syntax.PERCENT) &&
			(xt.Kind == syntax.FloatType || yt.Kind == syntax.FloatType) {
			c.errf(e.Position(), "operator %s requires word operands", e.Op)
		}
		e.Ty = xt
	}
}
