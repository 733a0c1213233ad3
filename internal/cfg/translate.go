package cfg

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cmm/internal/check"
	"cmm/internal/syntax"
)

// PassTranslate names the pass whose diagnostics this package produces.
const PassTranslate = "translate"

// Build translates a checked C-- program into Abstract C-- (§5.3).
func Build(src *syntax.Program, info *check.Info) (*Program, error) {
	p := &Program{
		Graphs:  map[string]*Graph{},
		Exports: src.Exports,
		Imports: src.Imports,
		Data:    src.Data,
		Source:  src,
	}
	p.YieldNode = &Node{ID: -1, Kind: KindYield}

	for _, g := range src.Globals {
		init := uint64(0)
		if g.Init != nil {
			v, err := evalConst(g.Init, src.File)
			if err != nil {
				return nil, err
			}
			init = v
		}
		p.Globals = append(p.Globals, GlobalVar{Name: g.Name, Type: g.Type, Init: init})
	}

	solids := map[string]bool{} // synthesized solid-primitive proc names
	for _, proc := range src.Procs {
		b := &builder{prog: p, info: info, solids: solids}
		g, err := b.buildProc(proc)
		if err != nil {
			return nil, err
		}
		p.Graphs[proc.Name] = g
		p.Order = append(p.Order, proc.Name)
	}

	if err := synthesizeSolids(p, solids); err != nil {
		return nil, err
	}
	return p, nil
}

// evalConst evaluates a constant expression to its raw bit pattern; file
// names the source in diagnostics.
func evalConst(e syntax.Expr, file string) (uint64, error) {
	switch e := e.(type) {
	case *syntax.IntLit:
		return e.Val, nil
	case *syntax.FloatLit:
		if e.Ty.Width == 32 {
			return uint64(math.Float32bits(float32(e.Val))), nil
		}
		return math.Float64bits(e.Val), nil
	case *syntax.UnExpr:
		x, err := evalConst(e.X, file)
		if err != nil {
			return 0, err
		}
		w := e.Type().Width
		switch e.Op {
		case syntax.MINUS:
			return truncate(-x, w), nil
		case syntax.TILDE:
			return truncate(^x, w), nil
		case syntax.NOT:
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *syntax.BinExpr:
		x, err := evalConst(e.X, file)
		if err != nil {
			return 0, err
		}
		y, err := evalConst(e.Y, file)
		if err != nil {
			return 0, err
		}
		w := e.X.Type().Width
		if w == 0 {
			w = 64
		}
		v, ok := EvalWordOp(e.Op, x, y, w)
		if !ok {
			return 0, syntax.ErrorAt(PassTranslate, file, e.Position(), "constant expression divides by zero or uses an unsupported operator")
		}
		return v, nil
	}
	return 0, syntax.ErrorAt(PassTranslate, file, e.Position(), "expression is not a constant")
}

func truncate(v uint64, width int) uint64 {
	if width <= 0 || width >= 64 {
		return v
	}
	return v & (1<<uint(width) - 1)
}

// signExtend interprets v (a width-bit pattern) as a signed value.
func signExtend(v uint64, width int) int64 {
	if width <= 0 || width >= 64 {
		return int64(v)
	}
	shift := uint(64 - width)
	return int64(v<<shift) >> shift
}

// EvalWordOp applies a binary word operator to width-bit operands,
// truncating the result to width bits. It reports ok=false on division by
// zero. It is shared by constant folding, the abstract machine, and the
// target machine so that all agree on arithmetic.
func EvalWordOp(op syntax.Kind, x, y uint64, width int) (uint64, bool) {
	b := func(cond bool) (uint64, bool) {
		if cond {
			return 1, true
		}
		return 0, true
	}
	switch op {
	case syntax.PLUS:
		return truncate(x+y, width), true
	case syntax.MINUS:
		return truncate(x-y, width), true
	case syntax.STAR:
		return truncate(x*y, width), true
	case syntax.SLASH:
		if y == 0 {
			return 0, false
		}
		return truncate(x/y, width), true
	case syntax.PERCENT:
		if y == 0 {
			return 0, false
		}
		return truncate(x%y, width), true
	case syntax.AMP:
		return x & y, true
	case syntax.PIPE:
		return x | y, true
	case syntax.CARET:
		return x ^ y, true
	case syntax.SHL:
		if y >= uint64(width) {
			return 0, true
		}
		return truncate(x<<y, width), true
	case syntax.SHR:
		if y >= uint64(width) {
			return 0, true
		}
		return x >> y, true
	case syntax.EQ:
		return b(x == y)
	case syntax.NE:
		return b(x != y)
	case syntax.LT:
		return b(x < y)
	case syntax.LE:
		return b(x <= y)
	case syntax.GT:
		return b(x > y)
	case syntax.GE:
		return b(x >= y)
	case syntax.ANDAND:
		return b(x != 0 && y != 0)
	case syntax.OROR:
		return b(x != 0 || y != 0)
	}
	return 0, false
}

// EvalPrim applies a primitive operator (§4.3) to width-bit operands.
// ok is false when the fast-but-dangerous variant would fail.
func EvalPrim(name string, args []uint64, width int) (uint64, bool) {
	switch name {
	case "divu":
		if args[1] == 0 {
			return 0, false
		}
		return truncate(args[0]/args[1], width), true
	case "divs":
		if args[1] == 0 {
			return 0, false
		}
		x, y := signExtend(args[0], width), signExtend(args[1], width)
		return truncate(uint64(x/y), width), true
	case "remu":
		if args[1] == 0 {
			return 0, false
		}
		return truncate(args[0]%args[1], width), true
	case "rems":
		if args[1] == 0 {
			return 0, false
		}
		x, y := signExtend(args[0], width), signExtend(args[1], width)
		return truncate(uint64(x%y), width), true
	case "mulu":
		return truncate(args[0]*args[1], width), true
	case "muls":
		x, y := signExtend(args[0], width), signExtend(args[1], width)
		return truncate(uint64(x*y), width), true
	case "neg":
		return truncate(-args[0], width), true
	case "com":
		return truncate(^args[0], width), true
	case "f2i":
		f := math.Float64frombits(args[0])
		if math.IsNaN(f) || f > math.MaxInt64 || f < math.MinInt64 {
			return 0, false
		}
		return truncate(uint64(int64(f)), width), true
	case "i2f":
		return math.Float64bits(float64(signExtend(args[0], width))), true
	}
	return 0, false
}

// SolidName returns the name of the synthesized procedure implementing
// the slow-but-solid variant of a primitive at the given operand width.
func SolidName(prim string, width int) string {
	return fmt.Sprintf(".solid.%s.w%d", prim, width)
}

type builder struct {
	prog   *Program
	info   *check.Info
	solids map[string]bool

	g       *Graph
	pi      *check.ProcInfo
	labels  map[string]*Node // label -> Goto shell
	ntemp   int
	procPos syntax.Pos
}

func (b *builder) errf(pos syntax.Pos, format string, args ...any) error {
	return syntax.ErrorAt(PassTranslate, b.info.Program.File, pos, format, args...)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (b *builder) buildProc(proc *syntax.Proc) (*Graph, error) {
	g := &Graph{
		Name:    proc.Name,
		ContMap: map[string]*Node{},
	}
	b.g = g
	b.pi = b.info.Procs[proc.Name]
	b.labels = map[string]*Node{}
	b.procPos = proc.Pos
	for _, f := range proc.Formals {
		g.Formals = append(g.Formals, Var{Name: f.Name, Type: f.Type})
	}
	for name, sym := range b.pi.Locals {
		g.Locals = append(g.Locals, Var{Name: name, Type: sym.Type})
	}

	// Shells for continuations and labels, so forward and backward
	// references resolve uniformly. They are made in name order, so that
	// node IDs do not depend on map iteration.
	for _, name := range sortedKeys(b.pi.Conts) {
		cs := b.pi.Conts[name]
		n := g.NewNode(KindCopyIn, cs.Position())
		for _, f := range cs.Formals {
			n.Vars = append(n.Vars, local(f, b.pi.Locals[f].Type))
		}
		n.ContName = name
		g.ContMap[name] = n
	}
	for _, name := range sortedKeys(b.pi.Labels) {
		n := g.NewNode(KindGoto, b.pi.Labels[name].Position())
		b.labels[name] = n
	}

	// Falling off the end of the body is an implicit "return ();".
	exit := g.NewNode(KindExit, proc.Pos)
	fallOut := g.NewNode(KindCopyOut, proc.Pos)
	fallOut.Succ = []*Node{exit}

	first, err := b.stmts(proc.Body, fallOut)
	if err != nil {
		return nil, err
	}

	entry := g.NewNode(KindEntry, proc.Pos)
	conts := make([]ContBinding, 0, len(g.ContMap))
	for name, n := range g.ContMap {
		conts = append(conts, ContBinding{Name: name, Node: n})
	}
	sort.Slice(conts, func(i, j int) bool { return conts[i].Name < conts[j].Name })
	entry.Conts = conts
	formalsIn := g.NewNode(KindCopyIn, proc.Pos)
	for _, f := range g.Formals {
		formalsIn.Vars = append(formalsIn.Vars, local(f.Name, f.Type))
	}
	entry.Succ = []*Node{formalsIn}
	formalsIn.Succ = []*Node{first}
	g.Entry = entry

	b.collapseGotos()
	if err := b.checkNoFallthroughIntoContinuation(); err != nil {
		return nil, err
	}
	b.number()
	return g, nil
}

// number sorts g's locals by name, which makes a local's slot its rank
// in name order, and writes every local's and continuation's slot onto
// the references to it.
func (b *builder) number() {
	g := b.g
	sort.Slice(g.Locals, func(i, j int) bool { return g.Locals[i].Name < g.Locals[j].Name })
	slots := make(map[string]int, len(g.Locals))
	for i, l := range g.Locals {
		slots[l.Name] = i
	}
	set := func(e syntax.Expr) {
		if v, ok := e.(*syntax.VarExpr); ok && v.Ref == syntax.RefLocal {
			v.Slot = slots[v.Name]
		}
	}
	for _, n := range g.nodes {
		for _, v := range n.Vars {
			set(v)
		}
		if n.LHSVar != nil {
			set(n.LHSVar)
		}
		WalkNodeExprs(n, set)
	}
	g.NumberConts()
}

// NumberConts writes onto every reference to a continuation its index in
// g.Entry.Conts, its slot. A pass that removes continuations calls it
// again.
func (g *Graph) NumberConts() {
	slots := make(map[string]int, len(g.Entry.Conts))
	for i, cb := range g.Entry.Conts {
		slots[cb.Name] = i
	}
	for _, n := range g.nodes {
		WalkNodeExprs(n, func(e syntax.Expr) {
			if v, ok := e.(*syntax.VarExpr); ok && v.Ref == syntax.RefCont {
				v.Slot = slots[v.Name]
			}
		})
	}
}

// stmts translates a statement list backwards, so that each statement's
// translation knows its successor.
func (b *builder) stmts(list []syntax.Stmt, next *Node) (*Node, error) {
	for i := len(list) - 1; i >= 0; i-- {
		n, err := b.stmt(list[i], next)
		if err != nil {
			return nil, err
		}
		next = n
	}
	return next, nil
}

// temp declares a fresh temporary local of type t.
func (b *builder) temp(t syntax.Type) string {
	b.ntemp++
	name := fmt.Sprintf(".t%d", b.ntemp)
	b.g.Locals = append(b.g.Locals, Var{Name: name, Type: t})
	return name
}

// local returns a reference to the local name of type t; number gives it
// its slot.
func local(name string, t syntax.Type) *syntax.VarExpr {
	return syntax.NewVar(name, syntax.RefLocal, 0, t)
}

func (b *builder) stmt(s syntax.Stmt, next *Node) (*Node, error) {
	g := b.g
	switch s := s.(type) {
	case *syntax.VarDecl:
		return next, nil
	case *syntax.LabelStmt:
		shell := b.labels[s.Name]
		shell.Succ = []*Node{next}
		return shell, nil
	case *syntax.ContinuationStmt:
		n := g.ContMap[s.Name]
		n.Succ = []*Node{next}
		return n, nil
	case *syntax.AssignStmt:
		return b.assign(s, next)
	case *syntax.CallStmt:
		return b.call(s, next)
	case *syntax.IfStmt:
		thenEntry, err := b.stmts(s.Then, next)
		if err != nil {
			return nil, err
		}
		elseEntry, err := b.stmts(s.Else, next)
		if err != nil {
			return nil, err
		}
		n := g.NewNode(KindBranch, s.Position())
		n.Cond = s.Cond
		n.Succ = []*Node{thenEntry, elseEntry}
		return n, nil
	case *syntax.GotoStmt:
		if v, ok := s.Target.(*syntax.VarExpr); ok && len(s.Targets) == 0 {
			return b.labels[v.Name], nil
		}
		n := g.NewNode(KindGoto, s.Position())
		n.Target = s.Target
		for _, t := range s.Targets {
			n.Succ = append(n.Succ, b.labels[t])
		}
		return n, nil
	case *syntax.JumpStmt:
		jump := g.NewNode(KindJump, s.Position())
		jump.Callee = s.Callee
		out := g.NewNode(KindCopyOut, s.Position())
		out.Exprs = s.Args
		out.Succ = []*Node{jump}
		return out, nil
	case *syntax.ReturnStmt:
		exit := g.NewNode(KindExit, s.Position())
		exit.RetIndex, exit.RetArity = s.Index, s.Arity
		out := g.NewNode(KindCopyOut, s.Position())
		out.Exprs = s.Results
		out.Succ = []*Node{exit}
		return out, nil
	case *syntax.CutStmt:
		cut := g.NewNode(KindCutTo, s.Position())
		cut.Callee = s.Cont
		cut.Bundle = &Bundle{Abort: s.Annots.Aborts}
		for _, name := range s.Annots.CutsTo {
			cut.Bundle.Cuts = append(cut.Bundle.Cuts, g.ContMap[name])
		}
		out := g.NewNode(KindCopyOut, s.Position())
		out.Exprs = s.Args
		out.Succ = []*Node{cut}
		return out, nil
	case *syntax.YieldStmt:
		call := g.NewNode(KindCall, s.Position())
		call.IsYield = true
		normal := g.NewNode(KindCopyIn, s.Position())
		normal.Succ = []*Node{next}
		call.Bundle = b.bundle(s.Annots, normal)
		out := g.NewNode(KindCopyOut, s.Position())
		out.Exprs = s.Args
		out.Succ = []*Node{call}
		return out, nil
	}
	return nil, b.errf(s.Position(), "cannot translate %T", s)
}

// bundle builds a continuation bundle from call-site annotations, with
// normal as the normal-return node (placed last in Returns, §4.2).
func (b *builder) bundle(a syntax.Annotations, normal *Node) *Bundle {
	bu := &Bundle{Abort: a.Aborts, Descriptors: a.Descriptors}
	for _, name := range a.ReturnsTo {
		bu.Returns = append(bu.Returns, b.g.ContMap[name])
	}
	bu.Returns = append(bu.Returns, normal)
	for _, name := range a.UnwindsTo {
		bu.Unwinds = append(bu.Unwinds, b.g.ContMap[name])
	}
	for _, name := range a.CutsTo {
		bu.Cuts = append(bu.Cuts, b.g.ContMap[name])
	}
	return bu
}

func (b *builder) assign(s *syntax.AssignStmt, next *Node) (*Node, error) {
	g := b.g
	if len(s.LHS) == 1 {
		n := g.NewNode(KindAssign, s.Position())
		b.setAssignTarget(n, s.LHS[0])
		n.RHS = s.RHS[0]
		n.Succ = []*Node{next}
		return n, nil
	}
	// Parallel assignment: evaluate every right-hand side into a fresh
	// temporary, then move the temporaries into the targets, so that
	// "x, y = y, x" means what it says.
	temps := make([]string, len(s.RHS))
	// Build backwards: moves first (closest to next), then evaluations.
	chainNext := next
	for i := len(s.LHS) - 1; i >= 0; i-- {
		t := s.RHS[i].Type()
		temps[i] = b.temp(t)
		mv := g.NewNode(KindAssign, s.Position())
		b.setAssignTarget(mv, s.LHS[i])
		mv.RHS = local(temps[i], t)
		mv.Succ = []*Node{chainNext}
		chainNext = mv
	}
	for i := len(s.RHS) - 1; i >= 0; i-- {
		ev := g.NewNode(KindAssign, s.Position())
		ev.LHSVar = local(temps[i], s.RHS[i].Type())
		ev.RHS = s.RHS[i]
		ev.Succ = []*Node{chainNext}
		chainNext = ev
	}
	return chainNext, nil
}

func (b *builder) setAssignTarget(n *Node, l syntax.LValue) {
	switch l := l.(type) {
	case *syntax.VarExpr:
		n.LHSVar = l
	case *syntax.MemExpr:
		n.LHSMem = l
	}
}

func (b *builder) call(s *syntax.CallStmt, next *Node) (*Node, error) {
	g := b.g
	call := g.NewNode(KindCall, s.Position())
	if s.Solid != "" {
		width := syntax.Word.Width
		if len(s.Args) > 0 {
			width = s.Args[0].Type().Width
		}
		name := SolidName(s.Solid, width)
		b.solids[name] = true
		call.Callee = syntax.NewVar(name, syntax.RefProc, 0, syntax.Word)
	} else {
		call.Callee = s.Callee
	}

	// Normal return: a CopyIn binding results. Results that are memory
	// references go through temporaries.
	normal := g.NewNode(KindCopyIn, s.Position())
	after := next
	var memStores []*Node
	for _, r := range s.Results {
		switch r := r.(type) {
		case *syntax.VarExpr:
			normal.Vars = append(normal.Vars, r)
		case *syntax.MemExpr:
			tmp := b.temp(r.Ty)
			normal.Vars = append(normal.Vars, local(tmp, r.Ty))
			st := g.NewNode(KindAssign, s.Position())
			st.LHSMem = r
			st.RHS = local(tmp, r.Ty)
			memStores = append(memStores, st)
		}
	}
	for i := len(memStores) - 1; i >= 0; i-- {
		memStores[i].Succ = []*Node{after}
		after = memStores[i]
	}
	normal.Succ = []*Node{after}

	call.Bundle = b.bundle(s.Annots, normal)
	out := g.NewNode(KindCopyOut, s.Position())
	out.Exprs = s.Args
	out.Succ = []*Node{call}
	return out, nil
}

// collapseGotos removes direct-goto shell nodes by redirecting every edge
// that points at a shell to the shell's (transitive) successor.
func (b *builder) collapseGotos() {
	resolve := func(n *Node) *Node {
		seen := map[*Node]bool{}
		for n != nil && n.Kind == KindGoto && n.Target == nil && len(n.Succ) == 1 && !seen[n] {
			seen[n] = true
			n = n.Succ[0]
		}
		return n
	}
	for _, n := range b.g.nodes {
		for i, s := range n.Succ {
			n.Succ[i] = resolve(s)
		}
		if n.Bundle != nil {
			for i, s := range n.Bundle.Returns {
				n.Bundle.Returns[i] = resolve(s)
			}
			for i, s := range n.Bundle.Unwinds {
				n.Bundle.Unwinds[i] = resolve(s)
			}
			for i, s := range n.Bundle.Cuts {
				n.Bundle.Cuts[i] = resolve(s)
			}
		}
		for i := range n.Conts {
			n.Conts[i].Node = resolve(n.Conts[i].Node)
		}
	}
	b.g.Entry = resolve(b.g.Entry)
	for name, n := range b.g.ContMap {
		b.g.ContMap[name] = resolve(n)
	}
}

// checkNoFallthroughIntoContinuation rejects control that falls off a
// statement into a following continuation; entering a continuation is
// meaningful only through a call site's bundle or a cut (§4.1).
func (b *builder) checkNoFallthroughIntoContinuation() error {
	for _, n := range b.g.Nodes() {
		for _, s := range n.Succ {
			if s != nil && s.Kind == KindCopyIn && s.ContName != "" && n.Kind != KindGoto {
				return b.errf(n.Pos, "control falls through into continuation %s; insert an explicit control transfer", s.ContName)
			}
		}
	}
	return nil
}

// synthesizeSolids generates the procedures that implement slow-but-solid
// primitives, following the paper's definitional expansion (§4.3):
//
//	%%divu(bits32 p, bits32 q) {
//	    if q == 0 { yield(DIVZERO); }
//	    return (%divu(p, q));
//	}
//
// The yield carries "also aborts" so that a dispatcher may unwind past
// the failed activation; if the run-time system fails to do so, the
// subsequent %divu has unspecified behavior, exactly as the paper says.
func synthesizeSolids(p *Program, solids map[string]bool) error {
	if len(solids) == 0 {
		return nil
	}
	names := make([]string, 0, len(solids))
	for n := range solids {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		var prim string
		var width int
		if _, err := fmt.Sscanf(name, ".solid.%s", &prim); err != nil {
			return fmt.Errorf("bad solid name %s", name)
		}
		dot := strings.LastIndex(prim, ".w")
		if dot < 0 {
			return fmt.Errorf("bad solid name %s", name)
		}
		fmt.Sscanf(prim[dot+2:], "%d", &width)
		prim = prim[:dot]
		info, ok := check.Primitives[prim]
		if !ok {
			return fmt.Errorf("unknown primitive %s", prim)
		}
		ty := fmt.Sprintf("bits%d", width)
		switch {
		case info.Args == 2 && isDivLike(prim):
			fmt.Fprintf(&sb, "%s(%s p, %s q) {\n", name, ty, ty)
			fmt.Fprintf(&sb, "    if q == 0 { yield(%d) also aborts; }\n", YieldDivZero)
			fmt.Fprintf(&sb, "    return (%%%s(p, q));\n}\n", prim)
		case info.Args == 2:
			fmt.Fprintf(&sb, "%s(%s p, %s q) { return (%%%s(p, q)); }\n", name, ty, ty, prim)
		default:
			fmt.Fprintf(&sb, "%s(%s p) { return (%%%s(p)); }\n", name, ty, prim)
		}
	}
	src, err := syntax.Parse(sb.String())
	if err != nil {
		return fmt.Errorf("internal error parsing synthesized primitives: %w", err)
	}
	info, err := check.Check(src)
	if err != nil {
		return fmt.Errorf("internal error checking synthesized primitives: %w", err)
	}
	for _, proc := range src.Procs {
		b := &builder{prog: p, info: info, solids: map[string]bool{}}
		g, err := b.buildProc(proc)
		if err != nil {
			return err
		}
		p.Graphs[proc.Name] = g
		p.Order = append(p.Order, proc.Name)
	}
	return nil
}

func isDivLike(prim string) bool {
	switch prim {
	case "divu", "divs", "remu", "rems":
		return true
	}
	return false
}
