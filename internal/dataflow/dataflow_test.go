package dataflow

import (
	"strings"
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/paper"
	"cmm/internal/syntax"
)

func build(t *testing.T, src string) *cfg.Program {
	t.Helper()
	prog, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := check.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := cfg.Build(prog, info)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func findKind(g *cfg.Graph, k cfg.NodeKind) *cfg.Node {
	for _, n := range g.Nodes() {
		if n.Kind == k {
			return n
		}
	}
	return nil
}

// --- Table 3 rules, one test per node kind ---

func TestTable3RulesAssign(t *testing.T) {
	p := build(t, `f(bits32 x, bits32 y) { x = x + y; return (x); }`)
	g := p.Graph("f")
	asg := findKind(g, cfg.KindAssign)
	ef := NodeEffects(asg, nil)
	if !ef.Uses["x"] || !ef.Uses["y"] {
		t.Errorf("uses: %v", ef.Uses)
	}
	if !ef.Defs["x"] {
		t.Errorf("defs: %v", ef.Defs)
	}
}

func TestTable3RulesAssignMemory(t *testing.T) {
	p := build(t, `f(bits32 a, bits32 b) { bits32[a] = b; return (); }`)
	asg := findKind(p.Graph("f"), cfg.KindAssign)
	ef := NodeEffects(asg, nil)
	if !ef.Uses["a"] || !ef.Uses["b"] {
		t.Errorf("uses: %v", ef.Uses)
	}
	// A store defines M, not a variable.
	if !ef.Defs[MemVar] || len(ef.VarDefs()) != 0 {
		t.Errorf("defs: %v", ef.Defs)
	}
}

func TestTable3RulesMemoryLoadUsesM(t *testing.T) {
	p := build(t, `f(bits32 a) { bits32 v; v = bits32[a]; return (v); }`)
	asg := findKind(p.Graph("f"), cfg.KindAssign)
	ef := NodeEffects(asg, nil)
	if !ef.Uses[MemVar] {
		t.Errorf("load must use M (fv includes M): %v", ef.Uses)
	}
}

func TestTable3RulesCopyInOut(t *testing.T) {
	p := build(t, `f(bits32 x, bits32 y) { return (x + 1, y); }`)
	g := p.Graph("f")
	in := g.Entry.Succ[0]
	ef := NodeEffects(in, nil)
	if len(ef.Copies) != 2 || ef.Copies[0] != (Copy{Dst: "x", Src: AVar(0)}) {
		t.Errorf("CopyIn copies: %v", ef.Copies)
	}
	out := findKind(g, cfg.KindCopyOut)
	efo := NodeEffects(out, nil)
	if !efo.Uses["x"] || !efo.Defs[AVar(0)] || !efo.Defs[AVar(1)] {
		t.Errorf("CopyOut: uses %v defs %v", efo.Uses, efo.Defs)
	}
	// The second result is a plain variable: a copy y -> A[1].
	foundCopy := false
	for _, c := range efo.Copies {
		if c == (Copy{Dst: AVar(1), Src: "y"}) {
			foundCopy = true
		}
	}
	if !foundCopy {
		t.Errorf("CopyOut copies: %v", efo.Copies)
	}
}

func TestTable3RulesBranch(t *testing.T) {
	p := build(t, `f(bits32 n) { if n == 1 { return (1); } return (0); }`)
	br := findKind(p.Graph("f"), cfg.KindBranch)
	ef := NodeEffects(br, nil)
	if !ef.Uses["n"] || len(ef.VarDefs()) != 0 {
		t.Errorf("branch: uses %v defs %v", ef.Uses, ef.Defs)
	}
}

func TestTable3RulesCall(t *testing.T) {
	p := build(t, "import g;"+paper.Figure5)
	call := findKind(p.Graph("f"), cfg.KindCall)
	ef := NodeEffects(call, nil)
	// Call uses and defines M.
	if !ef.Uses[MemVar] || !ef.Defs[MemVar] {
		t.Errorf("call M effects: uses %v defs %v", ef.Uses, ef.Defs)
	}
	// Along the edge to the normal return, A[0] and A[1] are defined
	// (the continuation binds b and c).
	normal := call.Bundle.NormalReturn()
	if got := ef.EdgeDefs[normal]; len(got) != 2 {
		t.Errorf("edge defs to normal return: %v", got)
	}
	// Along the unwind edge, one A value (d).
	k := call.Bundle.Unwinds[0]
	if got := ef.EdgeDefs[k]; len(got) != 1 {
		t.Errorf("edge defs to unwind continuation: %v", got)
	}
}

func TestTable3RulesCallKillsCalleeSavesOnCutEdges(t *testing.T) {
	p := build(t, `
f(bits32 y) {
    g(k) also cuts to k;
    return (y);
continuation k:
    return (y + 1);
}
g(bits32 kv) { return (); }
`)
	call := findKind(p.Graph("f"), cfg.KindCall)
	// With y in a callee-saves register, the cut edge kills it (§4.2).
	ef := NodeEffects(call, map[string]bool{"y": true})
	k := call.Bundle.Cuts[0]
	if got := ef.EdgeKills[k]; len(got) != 1 || got[0] != "y" {
		t.Errorf("cut-edge kills: %v", got)
	}
	// No kill along the normal return edge.
	if got := ef.EdgeKills[call.Bundle.NormalReturn()]; len(got) != 0 {
		t.Errorf("normal-edge kills: %v", got)
	}
}

func TestTable3RulesCalleeSavesNoEffect(t *testing.T) {
	n := &cfg.Node{Kind: cfg.KindCalleeSaves, Saved: []*syntax.VarExpr{{Name: "x"}}}
	ef := NodeEffects(n, nil)
	if len(ef.Uses) != 0 || len(ef.Defs) != 0 {
		t.Errorf("CalleeSaves must not affect dataflow: %v %v", ef.Uses, ef.Defs)
	}
}

func TestTable3RulesEntryDefinesContinuations(t *testing.T) {
	p := build(t, "import g;"+paper.Figure5)
	ef := NodeEffects(p.Graph("f").Entry, nil)
	if !ef.Defs["k"] {
		t.Errorf("entry defs: %v", ef.Defs)
	}
}

// --- Liveness ---

// TestLivenessFigure5 checks the paper's central optimization claim on
// its own example: b is live across the call BECAUSE of the unwind edge
// — the continuation k returns b + d.
func TestLivenessFigure5(t *testing.T) {
	p := build(t, "import g;"+paper.Figure5)
	g := p.Graph("f")
	lv := ComputeLiveness(g)
	call := findKind(g, cfg.KindCall)
	if !lv.LiveOut(call, slot(g, "b")) {
		t.Errorf("b must be live out of the call (used by continuation k): %v", lv.Out(call))
	}
	if !lv.LiveOut(call, slot(g, "a")) {
		t.Errorf("a must be live out of the call (used by c = b+c+a): %v", lv.Out(call))
	}
	// d is not live anywhere before the continuation binds it.
	if lv.LiveIn(g.Entry, slot(g, "d")) {
		t.Errorf("d live at entry: %v", lv.In(g.Entry))
	}
}

// TestLivenessWithoutHandlerEdgeWouldKill shows the contrast: remove the
// use in the continuation and b dies at the call.
func TestLivenessWithoutHandlerUse(t *testing.T) {
	p := build(t, `
import g;
f(bits32 a) {
    bits32 b, c, d;
    b = a;
    c = a;
    b, c = g() also unwinds to k;
    c = b + c + a;
    return (c);
continuation k(d):
    return (d);    /* no use of b here */
}
`)
	g := p.Graph("f")
	lv := ComputeLiveness(g)
	call := findKind(g, cfg.KindCall)
	// b is still defined by the normal-return CopyIn, but the b defined
	// BEFORE the call (b = a) must now be dead at the call.
	var firstAssign *cfg.Node
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindAssign && n.LHSVar != nil && n.LHSVar.Name == "b" {
			firstAssign = n
			break
		}
	}
	if firstAssign == nil {
		t.Fatal("no first assign")
	}
	if lv.LiveOut(call, slot(g, "b")) {
		t.Errorf("b live out of call despite no handler use: %v", lv.Out(call))
	}
}

func TestLivenessLoop(t *testing.T) {
	p := build(t, paper.Figure1)
	g := p.Graph("sp3")
	lv := ComputeLiveness(g)
	br := findKind(g, cfg.KindBranch)
	for _, v := range []string{"n", "s", "p"} {
		if !lv.LiveIn(br, slot(g, v)) {
			t.Errorf("%s not live at loop head: %v", v, lv.In(br))
		}
	}
}

func TestLiveAcross(t *testing.T) {
	p := build(t, "import g;"+paper.Figure5)
	g := p.Graph("f")
	lv := ComputeLiveness(g)
	call := findKind(g, cfg.KindCall)
	var across []string
	for _, s := range lv.LiveAcross(call) {
		across = append(across, g.Locals[s].Name)
	}
	want := map[string]bool{"a": true, "b": true}
	for _, v := range across {
		if !want[v] {
			t.Errorf("unexpected live-across %s (got %v)", v, across)
		}
		delete(want, v)
	}
	for v := range want {
		t.Errorf("missing live-across %s (got %v)", v, across)
	}
}

// --- Dominators ---

func TestDominatorsDiamond(t *testing.T) {
	p := build(t, `
f(bits32 x) {
    bits32 r;
    if x == 0 {
        r = 1;
    } else {
        r = 2;
    }
    return (r);
}
`)
	g := p.Graph("f")
	dt := ComputeDominators(g)
	br := findKind(g, cfg.KindBranch)
	// The branch dominates both arms and the join.
	thenN, elseN := br.Succ[0], br.Succ[1]
	if !dt.Dominates(br, thenN) || !dt.Dominates(br, elseN) {
		t.Error("branch must dominate both arms")
	}
	if dt.Dominates(thenN, elseN) || dt.Dominates(elseN, thenN) {
		t.Error("arms must not dominate each other")
	}
	// The join (the return's CopyOut) is in the branch's frontier closure:
	// both arms have the join in their dominance frontier.
	join := thenN.Succ[0]
	foundThen, foundElse := false, false
	for _, n := range dt.Frontier[thenN] {
		if n == join {
			foundThen = true
		}
	}
	for _, n := range dt.Frontier[elseN] {
		if n == join {
			foundElse = true
		}
	}
	if !foundThen || !foundElse {
		t.Errorf("join not in frontiers: then=%v else=%v", dt.Frontier[thenN], dt.Frontier[elseN])
	}
}

func TestDominatorsEntryDominatesAll(t *testing.T) {
	p := build(t, paper.Figure1)
	for _, name := range []string{"sp1", "sp2", "sp3"} {
		g := p.Graph(name)
		dt := ComputeDominators(g)
		for _, n := range dt.Order {
			if !dt.Dominates(g.Entry, n) {
				t.Errorf("%s: entry does not dominate n%d", name, n.ID)
			}
		}
	}
}

// --- SSA ---

// TestFigure6SSA reproduces the paper's Figure 6: the SSA numbering of
// the Figure 5 procedure. The variable c gets three SSA names (c=a, the
// call result, c=b+c+a); b gets two; the use of b in continuation k sees
// the value from BEFORE the call, not the call's normal result.
func TestFigure6SSA(t *testing.T) {
	p := build(t, "import g;"+paper.Figure5)
	g := p.Graph("f")
	s := BuildSSA(g)
	if err := s.Verify(); err != nil {
		t.Fatalf("SSA invalid: %v\n%s", err, s)
	}
	if s.Count["c"] != 3 {
		t.Errorf("c has %d SSA names, want 3\n%s", s.Count["c"], s)
	}
	if s.Count["b"] != 2 {
		t.Errorf("b has %d SSA names, want 2\n%s", s.Count["b"], s)
	}
	if s.Count["a"] != 1 {
		t.Errorf("a has %d SSA names, want 1\n%s", s.Count["a"], s)
	}
	// Find the call, its normal-return CopyIn, and the continuation k.
	call := findKind(g, cfg.KindCall)
	normal := call.Bundle.NormalReturn()
	k := call.Bundle.Unwinds[0]
	bBefore := 0
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindAssign && n.LHSVar != nil && n.LHSVar.Name == "b" {
			bBefore = s.Defs[n]["b"]
		}
	}
	bAfter := s.Defs[normal]["b"]
	if bBefore == 0 || bAfter == 0 || bBefore == bAfter {
		t.Fatalf("b defs: before=%d after=%d", bBefore, bAfter)
	}
	// k's body uses b; the reaching def must be the pre-call one.
	kOut := k.Succ[0] // CopyOut [b + d]
	if got := s.Uses[kOut]["b"]; got != bBefore {
		t.Errorf("continuation uses b%d, want b%d (the pre-call value)\n%s", got, bBefore, s)
	}
	// The normal path's use of b is the call result.
	var cAssign *cfg.Node
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindAssign && n.LHSVar != nil && n.LHSVar.Name == "c" && s.Defs[n]["c"] == 3 {
			cAssign = n
		}
	}
	if cAssign == nil {
		t.Fatalf("no c3 assignment\n%s", s)
	}
	if got := s.Uses[cAssign]["b"]; got != bAfter {
		t.Errorf("normal path uses b%d, want b%d\n%s", got, bAfter, s)
	}
}

func TestSSAPhiAtLoopHead(t *testing.T) {
	p := build(t, paper.Figure1)
	g := p.Graph("sp3")
	s := BuildSSA(g)
	if err := s.Verify(); err != nil {
		t.Fatalf("SSA invalid: %v\n%s", err, s)
	}
	// The loop head joins the initial values with the loop-updated
	// values: phis for n, s, p somewhere.
	phiVars := map[string]bool{}
	for _, phis := range s.Phis {
		for _, phi := range phis {
			phiVars[phi.Var] = true
		}
	}
	for _, v := range []string{"n", "s", "p"} {
		if !phiVars[v] {
			t.Errorf("no phi for %s\n%s", v, s)
		}
	}
}

func TestSSAVerifyAllFigures(t *testing.T) {
	sources := map[string]string{
		"figure1":   paper.Figure1,
		"figure5":   "import g;" + paper.Figure5,
		"section41": paper.Section41,
		"figure8":   paper.Figure8Globals + "import getMove, makeMove; bits32 tryAMoveDesc;" + paper.Figure8,
		"figure10": paper.Figure8Globals + paper.Figure10Globals +
			"import getMove, makeMove; bits32 BadMove; bits32 NoMoreTiles;" +
			paper.Figure10 + paper.RaiseCutting,
		"divu": paper.Section43Divu,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			p := build(t, src)
			for _, gname := range p.Order {
				g := p.Graphs[gname]
				s := BuildSSA(g)
				if err := s.Verify(); err != nil {
					t.Errorf("%s: %v\n%s", gname, err, s)
				}
			}
		})
	}
}

func TestSSAStringContainsPhi(t *testing.T) {
	p := build(t, paper.Figure1)
	s := BuildSSA(p.Graph("sp3"))
	if !strings.Contains(s.String(), "φ") {
		t.Errorf("rendering lacks phis:\n%s", s)
	}
}

func TestFreeVars(t *testing.T) {
	prog, err := syntax.Parse(`f(bits32 a, bits32 b) { bits32 v; v = bits32[a + b] + %divu(a, 2); return (v); }`)
	if err != nil {
		t.Fatal(err)
	}
	asg := prog.Procs[0].Body[1].(*syntax.AssignStmt)
	set := map[string]bool{}
	FreeVars(asg.RHS[0], set)
	if !set["a"] || !set["b"] || !set[MemVar] || set["v"] {
		t.Errorf("free vars: %v", set)
	}
}

// TestFigure6Golden pins the exact SSA rendering of the paper's example,
// so that any change to the numbering is a conscious one.
func TestFigure6Golden(t *testing.T) {
	p := build(t, "import g;"+paper.Figure5)
	s := BuildSSA(p.Graph("f"))
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	got := s.String()
	want := strings.Join([]string{
		"n0 Entry: def k1",
		"n1 CopyIn: def a1",
		"n2 Assign: use a1 def b1",
		"n3 Assign: use a1 def c1",
		"n4 CopyOut:",
		"n5 Call: use g0",
		"n6 CopyIn: def d1",         // the unwind continuation k
		"n7 CopyOut: use b1 use d1", // k returns b1 + d1: the PRE-call b
		"n8 Exit:",
		"n9 CopyIn: def b2 def c2", // normal return
		"n10 Assign: use a1 use b2 use c2 def c3",
		"n11 CopyOut: use c3",
		"n12 Exit:",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Figure 6 rendering changed:\n--- got\n%s--- want\n%s", got, want)
	}
}

func TestTable3AbortEdgeUses(t *testing.T) {
	p := build(t, `
f() {
    g() also aborts;
    return ();
}
g() { return (); }
`)
	call := findKind(p.Graph("f"), cfg.KindCall)
	ef := NodeEffects(call, nil)
	if len(ef.AbortUses) == 0 {
		t.Error("also aborts must use A along the exit edge (Table 3)")
	}
	p2 := build(t, `
f() {
    g();
    return ();
}
g() { return (); }
`)
	call2 := findKind(p2.Graph("f"), cfg.KindCall)
	if ef2 := NodeEffects(call2, nil); len(ef2.AbortUses) != 0 {
		t.Error("non-aborting call has abort-edge uses")
	}
}

// slot returns the slot of g's local name.
func slot(g *cfg.Graph, name string) int {
	for i, l := range g.Locals {
		if l.Name == name {
			return i
		}
	}
	panic("no local " + name)
}
