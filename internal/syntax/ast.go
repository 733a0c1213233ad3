package syntax

import (
	"fmt"
	"strings"
)

// TypeKind distinguishes word types from floating-point types.
type TypeKind int

// The two families of C-- types (§3.1): the only types are words and
// floating-point values of various sizes.
const (
	BitsType TypeKind = iota
	FloatType
)

// Type is a C-- type such as bits32 or float64. The zero Type is invalid;
// Word (bits32) is the native data-pointer and code-pointer type of this
// implementation, matching the paper's examples ("this example assumes
// that the machine's native data-pointer type is bits32", Appendix A.2).
type Type struct {
	Kind  TypeKind
	Width int // bits: 8, 16, 32, 64 for bits; 32, 64 for float
}

// Word is the native pointer type of this C-- implementation.
var Word = Type{Kind: BitsType, Width: 32}

func (t Type) String() string {
	if t.Kind == FloatType {
		return fmt.Sprintf("float%d", t.Width)
	}
	return fmt.Sprintf("bits%d", t.Width)
}

// Bytes returns the size of the type in bytes.
func (t Type) Bytes() int { return t.Width / 8 }

// TypeByName resolves a type name like "bits32"; ok is false if the name is
// not a C-- type.
func TypeByName(name string) (Type, bool) {
	switch name {
	case "bits8":
		return Type{BitsType, 8}, true
	case "bits16":
		return Type{BitsType, 16}, true
	case "bits32":
		return Type{BitsType, 32}, true
	case "bits64":
		return Type{BitsType, 64}, true
	case "float32":
		return Type{FloatType, 32}, true
	case "float64":
		return Type{FloatType, 64}, true
	}
	return Type{}, false
}

// Program is a parsed C-- compilation unit.
type Program struct {
	File    string // source file name, when known ("" for string input)
	Exports []string
	Imports []string
	Globals []*Global
	Data    []*DataSection
	Procs   []*Proc
}

// Proc returns the named procedure, or nil.
func (p *Program) Proc(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// Global declares a global register variable, optionally initialized to a
// constant.
type Global struct {
	Pos  Pos
	Type Type
	Name string
	Init Expr // nil or a constant expression
}

// DataSection is a named static data section holding labelled data.
type DataSection struct {
	Pos   Pos
	Name  string
	Items []*Datum
}

// Datum is one labelled block in a data section: either typed initialized
// words, a NUL-terminated string, or a reserved zeroed block.
type Datum struct {
	Pos     Pos
	Label   string
	Type    Type
	Values  []Expr // initialized values; nil for Str or reserved blocks
	Str     string // string datum when IsStr
	IsStr   bool
	Reserve int // element count for a reserved block (type[count];)
}

// Formal is a typed procedure parameter.
type Formal struct {
	Pos  Pos
	Type Type
	Name string
}

// Proc is a C-- procedure: a name, formal parameters, and a body of
// statements (declarations, labels and continuations appear in the body).
type Proc struct {
	Pos     Pos
	Name    string
	Formals []*Formal
	Body    []Stmt
}

// Annotations carries the call-site annotations of §4.4. Each list names
// continuations declared in the same procedure as the call site.
type Annotations struct {
	CutsTo      []string
	UnwindsTo   []string
	ReturnsTo   []string
	Aborts      bool
	Descriptors []Expr // static descriptor blocks attached to the call site
}

// Empty reports whether no annotation is present.
func (a Annotations) Empty() bool {
	return len(a.CutsTo) == 0 && len(a.UnwindsTo) == 0 &&
		len(a.ReturnsTo) == 0 && !a.Aborts && len(a.Descriptors) == 0
}

// Stmt is a statement in a procedure body.
type Stmt interface {
	stmt()
	Position() Pos
}

type stmtBase struct{ Pos Pos }

func (s stmtBase) stmt()         {}
func (s stmtBase) Position() Pos { return s.Pos }

// VarDecl declares local register variables of one type.
type VarDecl struct {
	stmtBase
	Type  Type
	Names []string
}

// LabelStmt names the following point in the control-flow graph.
type LabelStmt struct {
	stmtBase
	Name string
}

// ContinuationStmt declares a continuation (§4.1). The formal parameters
// must be variables of the enclosing procedure; they are not binding
// instances.
type ContinuationStmt struct {
	stmtBase
	Name    string
	Formals []string
}

// AssignStmt is a parallel assignment of expressions to lvalues (variables
// or memory locations).
type AssignStmt struct {
	stmtBase
	LHS []LValue
	RHS []Expr
}

// CallStmt is a procedure call, possibly binding multiple results and
// carrying call-site annotations. If Solid is nonempty the callee is a
// slow-but-solid primitive (%%op, §4.3) rather than Callee.
type CallStmt struct {
	stmtBase
	Results []LValue
	Callee  Expr
	Solid   string // name of a %%primitive, or ""
	Args    []Expr
	Annots  Annotations
}

// IfStmt is a two-way conditional.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// GotoStmt transfers control to a label in the same procedure. A computed
// goto must statically list all possible targets (§3.2).
type GotoStmt struct {
	stmtBase
	Target  Expr
	Targets []string // required when Target is not a simple label name
}

// JumpStmt is a tail call (§3.1): same semantics as call-then-return but
// the caller's activation is deallocated first.
type JumpStmt struct {
	stmtBase
	Callee Expr
	Args   []Expr
	Annots Annotations
}

// ReturnStmt returns from the procedure. Index/Arity encode the
// alternate-return form return <Index/Arity> (§4.2); an unannotated return
// has Index == Arity == 0 and returns to the normal continuation.
type ReturnStmt struct {
	stmtBase
	Index   int
	Arity   int
	Results []Expr
}

// Normal reports whether this is a normal (not alternate) return.
func (r *ReturnStmt) Normal() bool { return r.Index == r.Arity }

// CutStmt is "cut to k(args)": truncate the stack to k's activation and
// transfer there in constant time (§4.2).
type CutStmt struct {
	stmtBase
	Cont   Expr
	Args   []Expr
	Annots Annotations
}

// YieldStmt suspends the C-- computation and executes a procedure in the
// front-end run-time system (§3.3, §5.2).
type YieldStmt struct {
	stmtBase
	Args   []Expr
	Annots Annotations
}

// LValue is an assignable location: a variable or a memory cell.
type LValue interface {
	lvalue()
	Position() Pos
}

// Expr is a side-effect-free C-- expression (§4.3).
type Expr interface {
	expr()
	Position() Pos
	// Type is the expression's checked type. The checker sets it on
	// every expression of the source, and a pass that builds an
	// expression sets it in the constructor.
	Type() Type
}

type exprBase struct {
	Pos Pos
	Ty  Type // see Expr.Type
}

func (e exprBase) expr()         {}
func (e exprBase) Position() Pos { return e.Pos }
func (e exprBase) Type() Type    { return e.Ty }

// IntLit is an integer literal. Until checked its type is zero, meaning
// "infer the width from context".
type IntLit struct {
	exprBase
	Val uint64
}

// NewInt returns the literal v of type t.
func NewInt(v uint64, t Type) *IntLit { return &IntLit{exprBase: exprBase{Ty: t}, Val: v} }

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprBase
	Val float64
}

// StrLit denotes the address of an interned static NUL-terminated string.
type StrLit struct {
	exprBase
	Val string
}

// Ref is what a name denotes. The checker resolves every VarExpr of the
// source and records the answer on it; later passes dispatch on it
// rather than looking the name up again.
type Ref uint8

// The kinds of C-- names. The zero Ref marks a name not yet resolved.
const (
	RefNone   Ref = iota
	RefLocal      // local register variable (incl. formals and temporaries)
	RefGlobal     // global register variable
	RefProc       // procedure name (immutable code pointer)
	RefData       // data label (immutable data pointer)
	RefCont       // continuation (value of native pointer type)
	RefImport     // imported name (treated as a code pointer)
)

func (r Ref) String() string {
	switch r {
	case RefLocal:
		return "local"
	case RefGlobal:
		return "global"
	case RefProc:
		return "procedure"
	case RefData:
		return "data label"
	case RefCont:
		return "continuation"
	case RefImport:
		return "import"
	}
	return "unknown"
}

// VarExpr names a variable, procedure, continuation, or data label. Ref
// says which. Slot indexes, for a local, the procedure's locals
// (cfg.Graph.Locals, numbered by translate); for a continuation, its
// Entry's continuations (cfg.Node.Conts, numbered by translate); for a
// global, the program's globals in source order (set by the checker).
type VarExpr struct {
	exprBase
	Name string
	Ref  Ref
	Slot int
}

// NewVar returns a reference to name, resolved as ref to slot, of type t.
func NewVar(name string, ref Ref, slot int, t Type) *VarExpr {
	return &VarExpr{exprBase: exprBase{Ty: t}, Name: name, Ref: ref, Slot: slot}
}

func (v *VarExpr) lvalue() {}

// MemExpr is an explicit memory access type[addr]; as an LValue it is a
// store target, as an Expr a load. Its type is the access type.
type MemExpr struct {
	exprBase
	Addr Expr
}

// NewMem returns the access t[addr].
func NewMem(t Type, addr Expr) *MemExpr { return &MemExpr{exprBase: exprBase{Ty: t}, Addr: addr} }

func (m *MemExpr) lvalue() {}

// UnExpr is a unary operation: -, ~, !.
type UnExpr struct {
	exprBase
	Op Kind
	X  Expr
}

// NewUn returns op x of type t.
func NewUn(op Kind, x Expr, t Type) *UnExpr { return &UnExpr{exprBase: exprBase{Ty: t}, Op: op, X: x} }

// BinExpr is a binary operation.
type BinExpr struct {
	exprBase
	Op   Kind
	X, Y Expr
}

// NewBin returns x op y of type t.
func NewBin(op Kind, x, y Expr, t Type) *BinExpr {
	return &BinExpr{exprBase: exprBase{Ty: t}, Op: op, X: x, Y: y}
}

// PrimExpr is a fast-but-dangerous primitive application %op(args) (§4.3):
// evaluated without side effects, unspecified behavior on failure.
type PrimExpr struct {
	exprBase
	Name string
	Args []Expr
}

// NewPrim returns %name(args) of type t.
func NewPrim(name string, args []Expr, t Type) *PrimExpr {
	return &PrimExpr{exprBase: exprBase{Ty: t}, Name: name, Args: args}
}

// --- Pretty printing (used by tools and golden tests) ---

// String renders the program as parseable C-- source.
func (p *Program) String() string {
	var sb strings.Builder
	if len(p.Imports) > 0 {
		fmt.Fprintf(&sb, "import %s;\n", strings.Join(p.Imports, ", "))
	}
	if len(p.Exports) > 0 {
		fmt.Fprintf(&sb, "export %s;\n", strings.Join(p.Exports, ", "))
	}
	for _, g := range p.Globals {
		if g.Init != nil {
			fmt.Fprintf(&sb, "%s %s = %s;\n", g.Type, g.Name, ExprString(g.Init))
		} else {
			fmt.Fprintf(&sb, "%s %s;\n", g.Type, g.Name)
		}
	}
	for _, d := range p.Data {
		fmt.Fprintf(&sb, "section %q {\n", d.Name)
		for _, it := range d.Items {
			switch {
			case it.IsStr:
				fmt.Fprintf(&sb, "  %s: %q;\n", it.Label, it.Str)
			case it.Reserve > 0:
				fmt.Fprintf(&sb, "  %s: %s[%d];\n", it.Label, it.Type, it.Reserve)
			default:
				vals := make([]string, len(it.Values))
				for i, v := range it.Values {
					vals[i] = ExprString(v)
				}
				fmt.Fprintf(&sb, "  %s: %s %s;\n", it.Label, it.Type, strings.Join(vals, ", "))
			}
		}
		sb.WriteString("}\n")
	}
	for _, pr := range p.Procs {
		sb.WriteString(pr.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// String renders the procedure as parseable C-- source.
func (p *Proc) String() string {
	var sb strings.Builder
	formals := make([]string, len(p.Formals))
	for i, f := range p.Formals {
		formals[i] = fmt.Sprintf("%s %s", f.Type, f.Name)
	}
	fmt.Fprintf(&sb, "%s(%s) {\n", p.Name, strings.Join(formals, ", "))
	for _, s := range p.Body {
		writeStmt(&sb, s, 1)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func writeStmt(sb *strings.Builder, s Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	switch s := s.(type) {
	case *VarDecl:
		fmt.Fprintf(sb, "%s%s %s;\n", ind, s.Type, strings.Join(s.Names, ", "))
	case *LabelStmt:
		fmt.Fprintf(sb, "%s%s:\n", strings.Repeat("  ", depth-1), s.Name)
	case *ContinuationStmt:
		fmt.Fprintf(sb, "%scontinuation %s(%s):\n",
			strings.Repeat("  ", depth-1), s.Name, strings.Join(s.Formals, ", "))
	case *AssignStmt:
		fmt.Fprintf(sb, "%s%s = %s;\n", ind, lvaluesString(s.LHS), exprsString(s.RHS))
	case *CallStmt:
		fmt.Fprintf(sb, "%s", ind)
		if len(s.Results) > 0 {
			fmt.Fprintf(sb, "%s = ", lvaluesString(s.Results))
		}
		if s.Solid != "" {
			fmt.Fprintf(sb, "%%%%%s(%s)", s.Solid, exprsString(s.Args))
		} else {
			fmt.Fprintf(sb, "%s(%s)", ExprString(s.Callee), exprsString(s.Args))
		}
		writeAnnots(sb, s.Annots)
		sb.WriteString(";\n")
	case *IfStmt:
		fmt.Fprintf(sb, "%sif %s {\n", ind, ExprString(s.Cond))
		for _, t := range s.Then {
			writeStmt(sb, t, depth+1)
		}
		if len(s.Else) > 0 {
			fmt.Fprintf(sb, "%s} else {\n", ind)
			for _, t := range s.Else {
				writeStmt(sb, t, depth+1)
			}
		}
		fmt.Fprintf(sb, "%s}\n", ind)
	case *GotoStmt:
		fmt.Fprintf(sb, "%sgoto %s", ind, ExprString(s.Target))
		if len(s.Targets) > 0 {
			fmt.Fprintf(sb, " targets %s", strings.Join(s.Targets, ", "))
		}
		sb.WriteString(";\n")
	case *JumpStmt:
		fmt.Fprintf(sb, "%sjump %s(%s)", ind, ExprString(s.Callee), exprsString(s.Args))
		writeAnnots(sb, s.Annots)
		sb.WriteString(";\n")
	case *ReturnStmt:
		fmt.Fprintf(sb, "%sreturn", ind)
		if !(s.Index == 0 && s.Arity == 0) {
			fmt.Fprintf(sb, " <%d/%d>", s.Index, s.Arity)
		}
		fmt.Fprintf(sb, " (%s);\n", exprsString(s.Results))
	case *CutStmt:
		fmt.Fprintf(sb, "%scut to %s(%s)", ind, ExprString(s.Cont), exprsString(s.Args))
		writeAnnots(sb, s.Annots)
		sb.WriteString(";\n")
	case *YieldStmt:
		fmt.Fprintf(sb, "%syield(%s)", ind, exprsString(s.Args))
		writeAnnots(sb, s.Annots)
		sb.WriteString(";\n")
	default:
		fmt.Fprintf(sb, "%s/* unknown statement %T */\n", ind, s)
	}
}

func writeAnnots(sb *strings.Builder, a Annotations) {
	if len(a.CutsTo) > 0 {
		fmt.Fprintf(sb, " also cuts to %s", strings.Join(a.CutsTo, ", "))
	}
	if len(a.UnwindsTo) > 0 {
		fmt.Fprintf(sb, " also unwinds to %s", strings.Join(a.UnwindsTo, ", "))
	}
	if len(a.ReturnsTo) > 0 {
		fmt.Fprintf(sb, " also returns to %s", strings.Join(a.ReturnsTo, ", "))
	}
	if a.Aborts {
		sb.WriteString(" also aborts")
	}
	if len(a.Descriptors) > 0 {
		fmt.Fprintf(sb, " descriptors(%s)", exprsString(a.Descriptors))
	}
}

func lvaluesString(ls []LValue) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = ExprString(l.(Expr))
	}
	return strings.Join(parts, ", ")
}

func exprsString(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = ExprString(e)
	}
	return strings.Join(parts, ", ")
}

// ExprString renders an expression as parseable C-- source.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", e.Val)
	case *FloatLit:
		return fmt.Sprintf("%g", e.Val)
	case *StrLit:
		return fmt.Sprintf("%q", e.Val)
	case *VarExpr:
		return e.Name
	case *MemExpr:
		return fmt.Sprintf("%s[%s]", e.Ty, ExprString(e.Addr))
	case *UnExpr:
		return fmt.Sprintf("%s%s", e.Op, ExprString(e.X))
	case *BinExpr:
		return fmt.Sprintf("(%s %s %s)", ExprString(e.X), e.Op, ExprString(e.Y))
	case *PrimExpr:
		return fmt.Sprintf("%%%s(%s)", e.Name, exprsString(e.Args))
	}
	return fmt.Sprintf("/*?%T*/", e)
}
