package cfg

import (
	"strings"
	"testing"

	"cmm/internal/check"
	"cmm/internal/paper"
	"cmm/internal/syntax"
)

func build(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := check.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := Build(prog, info)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func kindsOf(ns []*Node) []NodeKind {
	ks := make([]NodeKind, len(ns))
	for i, n := range ns {
		ks[i] = n.Kind
	}
	return ks
}

func countKind(g *Graph, k NodeKind) int {
	c := 0
	for _, n := range g.Nodes() {
		if n.Kind == k {
			c++
		}
	}
	return c
}

// TestTable2NodesFigure5 checks the Figure 5 -> Figure 6 translation: the
// example procedure f becomes the node sequence the paper draws, with the
// "also unwinds to k" edge in the call's bundle.
func TestTable2NodesFigure5(t *testing.T) {
	p := build(t, "import g;"+paper.Figure5)
	g := p.Graph("f")
	if g == nil {
		t.Fatal("no graph for f")
	}
	// Entry binds exactly one continuation, k.
	if len(g.Entry.Conts) != 1 || g.Entry.Conts[0].Name != "k" {
		t.Fatalf("entry continuations: %+v", g.Entry.Conts)
	}
	k := g.Entry.Conts[0].Node
	if k.Kind != KindCopyIn || k.ContName != "k" || len(k.Vars) != 1 || k.Vars[0].Name != "d" {
		t.Fatalf("continuation node: %+v", k)
	}
	// Entry -> CopyIn [a] -> Assign b:=a -> Assign c:=a -> CopyOut [] -> Call g.
	n := g.Entry.Succ[0]
	if n.Kind != KindCopyIn || len(n.Vars) != 1 || n.Vars[0].Name != "a" {
		t.Fatalf("formals CopyIn: %+v", n)
	}
	n = n.Succ[0]
	if n.Kind != KindAssign || n.LHSVar.Name != "b" {
		t.Fatalf("first assign: %+v", n)
	}
	n = n.Succ[0]
	if n.Kind != KindAssign || n.LHSVar.Name != "c" {
		t.Fatalf("second assign: %+v", n)
	}
	n = n.Succ[0]
	if n.Kind != KindCopyOut || len(n.Exprs) != 0 {
		t.Fatalf("args CopyOut: %+v", n)
	}
	call := n.Succ[0]
	if call.Kind != KindCall {
		t.Fatalf("call: %+v", call)
	}
	if len(call.Succ) != 0 {
		t.Fatal("call must have no plain successors; flow goes through the bundle")
	}
	// Bundle: normal return binds b, c; unwinds to k.
	bu := call.Bundle
	if len(bu.Returns) != 1 {
		t.Fatalf("returns: %+v", bu.Returns)
	}
	normal := bu.NormalReturn()
	if normal.Kind != KindCopyIn || len(normal.Vars) != 2 || normal.Vars[0].Name != "b" || normal.Vars[1].Name != "c" {
		t.Fatalf("normal return CopyIn: %+v", normal)
	}
	if len(bu.Unwinds) != 1 || bu.Unwinds[0] != k {
		t.Fatalf("unwind edge: %+v", bu.Unwinds)
	}
	if bu.Abort {
		t.Fatal("no abort annotation on this call")
	}
	// Normal path: Assign c := b+c+a -> CopyOut [c] -> Exit <0/0>.
	n = normal.Succ[0]
	if n.Kind != KindAssign || n.LHSVar.Name != "c" {
		t.Fatalf("after call: %+v", n)
	}
	n = n.Succ[0]
	if n.Kind != KindCopyOut || len(n.Exprs) != 1 {
		t.Fatalf("return CopyOut: %+v", n)
	}
	exit := n.Succ[0]
	if exit.Kind != KindExit || exit.RetIndex != 0 || exit.RetArity != 0 {
		t.Fatalf("exit: %+v", exit)
	}
	// Continuation path: CopyIn [d] -> CopyOut [b+d] -> Exit.
	n = k.Succ[0]
	if n.Kind != KindCopyOut || len(n.Exprs) != 1 {
		t.Fatalf("continuation CopyOut: %+v", n)
	}
	if n.Succ[0].Kind != KindExit {
		t.Fatalf("continuation exit: %+v", n.Succ[0])
	}
}

func TestFigure1Graphs(t *testing.T) {
	p := build(t, paper.Figure1)
	for _, name := range []string{"sp1", "sp2", "sp2_help", "sp3"} {
		if p.Graph(name) == nil {
			t.Fatalf("missing graph %s", name)
		}
	}
	// sp2's body is a single tail call: CopyOut -> Jump.
	sp2 := p.Graph("sp2")
	n := sp2.Entry.Succ[0].Succ[0] // Entry -> CopyIn -> ...
	if n.Kind != KindCopyOut {
		t.Fatalf("sp2: %s", sp2)
	}
	if n.Succ[0].Kind != KindJump {
		t.Fatalf("sp2 jump: %s", sp2)
	}
	// sp3's goto loop produces a back edge, not a Goto node.
	sp3 := p.Graph("sp3")
	if c := countKind(sp3, KindGoto); c != 0 {
		t.Errorf("sp3 has %d Goto nodes after collapsing, want 0:\n%s", c, sp3)
	}
	// The loop head (a Branch) must have two predecessors: fallthrough
	// and the goto back edge.
	preds := sp3.Preds()
	var loopHead *Node
	for _, n := range sp3.Nodes() {
		if n.Kind == KindBranch {
			loopHead = n
		}
	}
	if loopHead == nil || len(preds[loopHead]) != 2 {
		t.Errorf("loop head preds: %v\n%s", preds[loopHead], sp3)
	}
}

func TestBranchSuccessors(t *testing.T) {
	p := build(t, `f(bits32 n) { if n == 1 { return (1); } else { return (2); } }`)
	g := p.Graph("f")
	var br *Node
	for _, n := range g.Nodes() {
		if n.Kind == KindBranch {
			br = n
		}
	}
	if br == nil || len(br.Succ) != 2 {
		t.Fatalf("branch: %+v", br)
	}
	if br.Succ[0] == br.Succ[1] {
		t.Fatal("then and else must differ")
	}
}

func TestParallelAssignmentUsesTemps(t *testing.T) {
	p := build(t, `f(bits32 x, bits32 y) { x, y = y, x; return (x); }`)
	g := p.Graph("f")
	// Four Assign nodes: two evaluations into temps, two moves.
	if c := countKind(g, KindAssign); c != 4 {
		t.Fatalf("swap uses %d assigns, want 4:\n%s", c, g)
	}
}

func TestSingleAssignmentIsDirect(t *testing.T) {
	p := build(t, `f(bits32 x) { x = x + 1; return (x); }`)
	g := p.Graph("f")
	if c := countKind(g, KindAssign); c != 1 {
		t.Fatalf("%d assigns, want 1:\n%s", c, g)
	}
}

func TestMemoryStore(t *testing.T) {
	p := build(t, `f(bits32 x, bits32 y) { bits32[x] = bits32[y] + 1; return (); }`)
	g := p.Graph("f")
	var asg *Node
	for _, n := range g.Nodes() {
		if n.Kind == KindAssign {
			asg = n
		}
	}
	if asg == nil || asg.LHSMem == nil {
		t.Fatalf("store: %+v", asg)
	}
}

func TestCallResultIntoMemory(t *testing.T) {
	p := build(t, `
f(bits32 x) { bits32[x] = g(); return (); }
g() { return (1); }
`)
	fg := p.Graph("f")
	// The call's normal return binds a temp, then an Assign stores it.
	var call *Node
	for _, n := range fg.Nodes() {
		if n.Kind == KindCall {
			call = n
		}
	}
	normal := call.Bundle.NormalReturn()
	if len(normal.Vars) != 1 || !strings.HasPrefix(normal.Vars[0].Name, ".t") {
		t.Fatalf("normal return: %+v", normal)
	}
	if st := normal.Succ[0]; st.Kind != KindAssign || st.LHSMem == nil {
		t.Fatalf("store after call: %+v", normal.Succ[0])
	}
}

func TestAlternateReturnsBundleOrder(t *testing.T) {
	p := build(t, `
caller() {
    bits32 r;
    r = g() also returns to k0, k1;
    return (r);
continuation k0:
    return (10);
continuation k1:
    return (11);
}
g() { return <2/2> (0); }
`)
	g := p.Graph("caller")
	var call *Node
	for _, n := range g.Nodes() {
		if n.Kind == KindCall {
			call = n
		}
	}
	bu := call.Bundle
	if len(bu.Returns) != 3 {
		t.Fatalf("returns: %d", len(bu.Returns))
	}
	if bu.Returns[0].ContName != "k0" || bu.Returns[1].ContName != "k1" {
		t.Fatalf("alternate order wrong: %+v", bu.Returns)
	}
	// Normal return is last (§4.2).
	if bu.NormalReturn().ContName != "" {
		t.Fatal("normal return must be the anonymous CopyIn")
	}
	if bu.AlternateCount() != 2 {
		t.Fatalf("alternate count: %d", bu.AlternateCount())
	}
}

func TestCutToTranslation(t *testing.T) {
	p := build(t, `
f(bits32 kv) {
    cut to kv(1, 2) also aborts;
}
`)
	g := p.Graph("f")
	var cut *Node
	for _, n := range g.Nodes() {
		if n.Kind == KindCutTo {
			cut = n
		}
	}
	if cut == nil || !cut.Bundle.Abort {
		t.Fatalf("cut: %+v", cut)
	}
	// Its predecessor is the CopyOut of the two arguments.
	preds := g.Preds()
	co := preds[cut][0]
	if co.Kind != KindCopyOut || len(co.Exprs) != 2 {
		t.Fatalf("cut CopyOut: %+v", co)
	}
}

func TestYieldTranslation(t *testing.T) {
	p := build(t, `
f() {
    yield(7) also unwinds to k also aborts;
    return (1);
continuation k:
    return (2);
}
`)
	g := p.Graph("f")
	var call *Node
	for _, n := range g.Nodes() {
		if n.Kind == KindCall && n.IsYield {
			call = n
		}
	}
	if call == nil {
		t.Fatalf("no yield call:\n%s", g)
	}
	if len(call.Bundle.Unwinds) != 1 || !call.Bundle.Abort {
		t.Fatalf("yield bundle: %+v", call.Bundle)
	}
	// Normal resumption continues after the yield.
	normal := call.Bundle.NormalReturn()
	if normal.Kind != KindCopyIn || len(normal.Vars) != 0 {
		t.Fatalf("yield normal return: %+v", normal)
	}
}

func TestComputedGotoSurvives(t *testing.T) {
	p := build(t, `
f(bits32 x) {
    goto x targets a, b;
a:
    return (1);
b:
    return (2);
}
`)
	g := p.Graph("f")
	var gn *Node
	for _, n := range g.Nodes() {
		if n.Kind == KindGoto {
			gn = n
		}
	}
	if gn == nil || gn.Target == nil || len(gn.Succ) != 2 {
		t.Fatalf("computed goto: %+v\n%s", gn, g)
	}
}

func TestFallthroughIntoContinuationRejected(t *testing.T) {
	prog, err := syntax.Parse(`
f(bits32 x) {
    x = x + 1;
continuation k(x):
    return (x);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := check.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(prog, info); err == nil {
		t.Fatal("expected fallthrough-into-continuation error")
	} else if !strings.Contains(err.Error(), "falls through into continuation") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestImplicitReturn(t *testing.T) {
	p := build(t, `f() { g(); } g() { return (); }`)
	g := p.Graph("f")
	if countKind(g, KindExit) != 1 {
		t.Fatalf("implicit return missing:\n%s", g)
	}
}

func TestSolidPrimitiveSynthesis(t *testing.T) {
	p := build(t, `
f(bits32 p, bits32 q) {
    bits32 r;
    r = %%divu(p, q) also aborts;
    return (r);
}
`)
	name := SolidName("divu", 32)
	sg := p.Graph(name)
	if sg == nil {
		t.Fatalf("missing synthesized %s; graphs: %v", name, p.Order)
	}
	// The synthesized body yields DIVZERO on a zero divisor.
	var yield *Node
	for _, n := range sg.Nodes() {
		if n.Kind == KindCall && n.IsYield {
			yield = n
		}
	}
	if yield == nil {
		t.Fatalf("no yield in synthesized primitive:\n%s", sg)
	}
	if !yield.Bundle.Abort {
		t.Fatal("synthesized yield must carry also aborts")
	}
	// The call site in f targets the synthesized procedure.
	fg := p.Graph("f")
	var call *Node
	for _, n := range fg.Nodes() {
		if n.Kind == KindCall {
			call = n
		}
	}
	if v, ok := call.Callee.(*syntax.VarExpr); !ok || v.Name != name {
		t.Fatalf("solid call callee: %+v", call.Callee)
	}
}

func TestSolidPrimitiveNonFailing(t *testing.T) {
	p := build(t, `
f(bits32 a, bits32 b) {
    bits32 r;
    r = %%mulu(a, b);
    return (r);
}
`)
	sg := p.Graph(SolidName("mulu", 32))
	if sg == nil {
		t.Fatal("missing synthesized mulu")
	}
	for _, n := range sg.Nodes() {
		if n.Kind == KindCall {
			t.Fatalf("non-failing primitive must not yield:\n%s", sg)
		}
	}
}

func TestGlobalsCarriedWithInit(t *testing.T) {
	p := build(t, `bits32 a; bits32 b = 6 * 7; f() { return (a + b); }`)
	if len(p.Globals) != 2 {
		t.Fatalf("globals: %+v", p.Globals)
	}
	if p.Globals[1].Init != 42 {
		t.Fatalf("b init: %d", p.Globals[1].Init)
	}
}

func TestNodesStableAndComplete(t *testing.T) {
	p := build(t, "import g;"+paper.Figure5)
	g := p.Graph("f")
	n1 := g.Nodes()
	n2 := g.Nodes()
	if len(n1) != len(n2) {
		t.Fatal("Nodes() not stable")
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatal("Nodes() order not stable")
		}
	}
	// All continuation nodes are reachable.
	for name, cn := range g.ContMap {
		found := false
		for _, n := range n1 {
			if n == cn {
				found = true
			}
		}
		if !found {
			t.Errorf("continuation %s unreachable", name)
		}
	}
}

func TestDumpReadable(t *testing.T) {
	p := build(t, "import g;"+paper.Figure5)
	s := p.Graph("f").String()
	for _, want := range []string{"Entry", "CopyIn [a]", "Call g", "unwinds=", "Exit <0/0>", "(continuation k)"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump lacks %q:\n%s", want, s)
		}
	}
}

func TestEvalWordOp(t *testing.T) {
	cases := []struct {
		op   syntax.Kind
		x, y uint64
		w    int
		want uint64
		ok   bool
	}{
		{syntax.PLUS, 0xFFFFFFFF, 1, 32, 0, true},
		{syntax.PLUS, 0xFFFFFFFF, 1, 64, 0x100000000, true},
		{syntax.MINUS, 0, 1, 32, 0xFFFFFFFF, true},
		{syntax.STAR, 0x10000, 0x10000, 32, 0, true},
		{syntax.SLASH, 7, 2, 32, 3, true},
		{syntax.SLASH, 7, 0, 32, 0, false},
		{syntax.PERCENT, 7, 3, 32, 1, true},
		{syntax.SHL, 1, 31, 32, 0x80000000, true},
		{syntax.SHL, 1, 32, 32, 0, true},
		{syntax.SHR, 0x80000000, 31, 32, 1, true},
		{syntax.LT, 1, 2, 32, 1, true},
		{syntax.GE, 1, 2, 32, 0, true},
		{syntax.ANDAND, 1, 0, 32, 0, true},
		{syntax.OROR, 1, 0, 32, 1, true},
	}
	for _, c := range cases {
		got, ok := EvalWordOp(c.op, c.x, c.y, c.w)
		if got != c.want || ok != c.ok {
			t.Errorf("EvalWordOp(%s, %#x, %#x, %d) = %#x,%v; want %#x,%v",
				c.op, c.x, c.y, c.w, got, ok, c.want, c.ok)
		}
	}
}

func TestEvalPrim(t *testing.T) {
	if v, ok := EvalPrim("divu", []uint64{10, 3}, 32); !ok || v != 3 {
		t.Errorf("divu: %d %v", v, ok)
	}
	if _, ok := EvalPrim("divu", []uint64{10, 0}, 32); ok {
		t.Error("divu by zero must fail")
	}
	// Signed divide: -7 / 2 == -3 (round toward zero).
	neg7 := uint64(0xFFFFFFF9)
	if v, ok := EvalPrim("divs", []uint64{neg7, 2}, 32); !ok || v != 0xFFFFFFFD {
		t.Errorf("divs: %#x %v", v, ok)
	}
	if v, ok := EvalPrim("rems", []uint64{neg7, 2}, 32); !ok || v != 0xFFFFFFFF {
		t.Errorf("rems: %#x %v", v, ok)
	}
	if v, ok := EvalPrim("neg", []uint64{1}, 32); !ok || v != 0xFFFFFFFF {
		t.Errorf("neg: %#x %v", v, ok)
	}
}

func TestFigure8And10Build(t *testing.T) {
	src8 := paper.Figure8Globals + "import getMove, makeMove; bits32 tryAMoveDesc;" + paper.Figure8
	p8 := build(t, src8)
	g8 := p8.Graph("TryAMove")
	// Both annotated calls unwind to two continuations and may abort.
	calls := 0
	for _, n := range g8.Nodes() {
		if n.Kind == KindCall && !n.IsYield && len(n.Bundle.Unwinds) == 2 {
			if !n.Bundle.Abort {
				t.Error("Figure 8 call must also abort")
			}
			if len(n.Bundle.Descriptors) != 1 {
				t.Errorf("descriptors: %+v", n.Bundle.Descriptors)
			}
			calls++
		}
	}
	if calls != 2 {
		t.Errorf("Figure 8: %d annotated calls, want 2", calls)
	}

	src10 := paper.Figure8Globals + paper.Figure10Globals +
		"import getMove, makeMove; bits32 BadMove; bits32 NoMoreTiles;" +
		paper.Figure10 + paper.RaiseCutting
	p10 := build(t, src10)
	g10 := p10.Graph("TryAMove")
	cutsAnnotated := 0
	for _, n := range g10.Nodes() {
		if n.Kind == KindCall && len(n.Bundle.Cuts) == 1 {
			cutsAnnotated++
		}
	}
	if cutsAnnotated != 2 {
		t.Errorf("Figure 10: %d calls annotated also cuts to, want 2", cutsAnnotated)
	}
	raise := p10.Graph("raise")
	foundCut := false
	for _, n := range raise.Nodes() {
		if n.Kind == KindCutTo && n.Bundle.Abort {
			foundCut = true
		}
	}
	if !foundCut {
		t.Error("raise must cut to the handler with also aborts")
	}
}

// TestSlotsFollowNameOrder: translate sorts every graph's locals by
// name, temporaries included, and every reference to a local or a
// continuation carries the index of its name in the slot table.
func TestSlotsFollowNameOrder(t *testing.T) {
	for _, src := range []string{paper.Figure1, paper.Fig2Cut, paper.Fig2RuntimeUnwind, `
bits32 g;
f(bits32 b, bits32 a) {
    bits32 z, m;
    a, b = b, a;
    bits32[a], g, z = h(k) also unwinds to k;
    m = b + z + g;
    return (m);
continuation k(m):
    return (m);
}
h(bits32 c) { return (c, c, c); }
`} {
		p := build(t, src)
		for _, name := range p.Order {
			checkSlots(t, p.Graph(name))
		}
	}
}

func checkSlots(t *testing.T, g *Graph) {
	t.Helper()
	for i := 1; i < len(g.Locals); i++ {
		if g.Locals[i-1].Name >= g.Locals[i].Name {
			t.Errorf("%s: locals out of name order: %v", g.Name, g.Locals)
		}
	}
	check := func(v *syntax.VarExpr) {
		switch {
		case v.Ref == syntax.RefLocal && g.Locals[v.Slot].Name != v.Name,
			v.Ref == syntax.RefCont && g.Entry.Conts[v.Slot].Name != v.Name:
			t.Errorf("%s: %s %s has slot %d", g.Name, v.Ref, v.Name, v.Slot)
		case v.Ref == syntax.RefNone:
			t.Errorf("%s: %s is unresolved", g.Name, v.Name)
		}
	}
	for _, n := range g.AllNodes() {
		for _, v := range n.Vars {
			check(v)
		}
		if n.LHSVar != nil {
			check(n.LHSVar)
		}
		WalkNodeExprs(n, func(e syntax.Expr) {
			if v, ok := e.(*syntax.VarExpr); ok {
				check(v)
			}
			if e.Type() == (syntax.Type{}) {
				t.Errorf("%s: %s has no type", g.Name, syntax.ExprString(e))
			}
		})
	}
}
