package opt

import (
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/paper"
	"cmm/internal/sem"
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

func countAssigns(g *cfg.Graph) int {
	c := 0
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindAssign {
			c++
		}
	}
	return c
}

func run(t *testing.T, p *cfg.Program, proc string, args ...uint64) []sem.Value {
	t.Helper()
	m, err := sem.New(p, sem.WithMaxSteps(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := m.Run(proc, args...)
	if err != nil {
		t.Fatalf("run %s: %v", proc, err)
	}
	return vs
}

func TestConstantFolding(t *testing.T) {
	p := build(t, `
f() {
    bits32 x, y;
    x = 2 + 3;
    y = x * 4;
    return (y);
}
`)
	g := p.Graph("f")
	res := Optimize(g, Options{})
	if res.ConstantsFolded == 0 {
		t.Errorf("nothing folded: %s", res)
	}
	if got := run(t, p, "f")[0].Bits; got != 20 {
		t.Errorf("f() = %d after optimization", got)
	}
	// y = x*4 must now be a constant 20.
	found := false
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindCopyOut && len(n.Exprs) == 1 {
			if lit, ok := n.Exprs[0].(*syntax.IntLit); ok && lit.Val == 20 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("return value not folded to 20:\n%s", g)
	}
}

func TestConstantBranchResolution(t *testing.T) {
	p := build(t, `
f() {
    bits32 x;
    x = 1;
    if x == 1 {
        return (10);
    }
    return (20);
}
`)
	g := p.Graph("f")
	res := Optimize(g, Options{})
	if res.BranchesResolved != 1 {
		t.Errorf("branches resolved: %s", res)
	}
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindBranch {
			t.Errorf("branch survived:\n%s", g)
		}
	}
	if got := run(t, p, "f")[0].Bits; got != 10 {
		t.Errorf("f() = %d", got)
	}
}

func TestCopyPropagation(t *testing.T) {
	p := build(t, `
f(bits32 a) {
    bits32 b, c;
    b = a;
    c = b + 1;
    return (c);
}
`)
	g := p.Graph("f")
	res := Optimize(g, Options{})
	if res.CopiesPropagated == 0 {
		t.Errorf("no copies propagated: %s\n%s", res, g)
	}
	// b = a should now be dead and removed.
	if res.AssignsRemoved == 0 {
		t.Errorf("dead copy not removed: %s\n%s", res, g)
	}
	if got := run(t, p, "f", 41)[0].Bits; got != 42 {
		t.Errorf("f(41) = %d", got)
	}
}

func TestDeadCodeElimination(t *testing.T) {
	p := build(t, `
f(bits32 a) {
    bits32 unused;
    unused = a * 100;
    return (a);
}
`)
	g := p.Graph("f")
	before := countAssigns(g)
	res := Optimize(g, Options{})
	if res.AssignsRemoved != 1 || countAssigns(g) != before-1 {
		t.Errorf("dead assign not removed: %s\n%s", res, g)
	}
}

func TestDeadStoreToMemoryKept(t *testing.T) {
	p := build(t, `
f(bits32 a) {
    bits32[a] = 7;    /* observable: must never be removed */
    return (a);
}
`)
	g := p.Graph("f")
	Optimize(g, Options{})
	found := false
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindAssign && n.LHSMem != nil {
			found = true
		}
	}
	if !found {
		t.Errorf("memory store removed:\n%s", g)
	}
}

func TestGlobalAssignKept(t *testing.T) {
	p := build(t, `
bits32 gv;
f() {
    gv = 5;    /* observable */
    return ();
}
`)
	g := p.Graph("f")
	Optimize(g, Options{})
	if countAssigns(g) != 1 {
		t.Errorf("global assignment removed:\n%s", g)
	}
}

func TestLocalCSE(t *testing.T) {
	p := build(t, `
f(bits32 a, bits32 b) {
    bits32 x, y;
    x = a * b;
    y = a * b;
    return (x + y);
}
`)
	g := p.Graph("f")
	res := Optimize(g, Options{})
	if res.CSEHits == 0 {
		t.Errorf("no CSE: %s\n%s", res, g)
	}
	if got := run(t, p, "f", 3, 4)[0].Bits; got != 24 {
		t.Errorf("f(3,4) = %d", got)
	}
}

func TestCSEInvalidatedByRedefinition(t *testing.T) {
	p := build(t, `
f(bits32 a, bits32 b) {
    bits32 x, y;
    x = a * b;
    a = a + 1;
    y = a * b;    /* different a: no CSE */
    return (x + y);
}
`)
	g := p.Graph("f")
	Optimize(g, Options{})
	if got := run(t, p, "f", 3, 4)[0].Bits; got != 3*4+4*4 {
		t.Errorf("f(3,4) = %d, want %d", got, 3*4+4*4)
	}
}

func TestCSEInvalidatedByStore(t *testing.T) {
	p := build(t, `
f(bits32 a) {
    bits32 x, y;
    x = bits32[a];
    bits32[a] = x + 1;
    y = bits32[a];    /* reload: the store changed it */
    return (y);
}
`)
	p2 := build(t, `
f(bits32 a) {
    bits32 x, y;
    x = bits32[a];
    bits32[a] = x + 1;
    y = bits32[a];
    return (y);
}
`)
	g := p.Graph("f")
	Optimize(g, Options{})
	m1, _ := sem.New(p, sem.WithMaxSteps(100000))
	m2, _ := sem.New(p2, sem.WithMaxSteps(100000))
	m1.Store(0x8000, 10, 4)
	m2.Store(0x8000, 10, 4)
	v1, err1 := m1.Run("f", 0x8000)
	v2, err2 := m2.Run("f", 0x8000)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if v1[0].Bits != v2[0].Bits || v1[0].Bits != 11 {
		t.Errorf("optimized %d, unoptimized %d, want 11", v1[0].Bits, v2[0].Bits)
	}
}

// TestOptimizePreservesFigure1 checks end-to-end behaviour preservation
// on the paper's own programs.
func TestOptimizePreservesFigure1(t *testing.T) {
	pOpt := build(t, paper.Figure1)
	pRef := build(t, paper.Figure1)
	for _, name := range pOpt.Order {
		Optimize(pOpt.Graph(name), Options{})
	}
	for n := uint64(1); n <= 8; n++ {
		for _, proc := range []string{"sp1", "sp2", "sp3"} {
			a := run(t, pOpt, proc, n)
			b := run(t, pRef, proc, n)
			if a[0].Bits != b[0].Bits || a[1].Bits != b[1].Bits {
				t.Errorf("%s(%d): optimized (%d,%d) != reference (%d,%d)",
					proc, n, a[0].Bits, a[1].Bits, b[0].Bits, b[1].Bits)
			}
		}
	}
}

// The Hennessy scenario (§6, Related Work): a value used only by an
// exception handler. With the exception edges present the optimizer must
// preserve it; with them hidden (the unsound ablation) it deletes the
// assignment and the handler reads garbage.
const hennessySrc = `
f(bits32 a) {
    bits32 b, c;
    b = a + 1;
    c = g(k) also cuts to k;
    return (c);
continuation k:
    return (b);        /* b is used ONLY on the exceptional path */
}
g(bits32 kv) {
    cut to kv() also aborts;
}
`

func TestHennessyCorrectnessWithEdges(t *testing.T) {
	p := build(t, hennessySrc)
	Optimize(p.Graph("f"), Options{})
	got := run(t, p, "f", 41)
	if got[0].Bits != 42 {
		t.Errorf("f(41) = %d, want 42 (handler must see b)", got[0].Bits)
	}
}

func TestHennessyMiscompilesWithoutEdges(t *testing.T) {
	p := build(t, hennessySrc)
	res := Optimize(p.Graph("f"), Options{WithoutExceptionEdges: true})
	if res.AssignsRemoved == 0 {
		t.Fatalf("ablation did not remove the handler-only value: %s\n%s", res, p.Graph("f"))
	}
	m, err := sem.New(p, sem.WithMaxSteps(100000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("f", 41); err == nil {
		t.Fatal("expected the miscompiled program to go wrong (b deleted)")
	}
}

// TestFigure5OptimizedStillCorrect: the same point on the paper's own
// example, via the unwinding path.
func TestFigure5OptimizedStillCorrect(t *testing.T) {
	src := `
f(bits32 a) {
    bits32 b, c, d;
    b = a;
    c = a;
    b, c = g() also unwinds to k also aborts;
    c = b + c + a;
    return (c);
continuation k(d):
    return (b + d);
}
g() {
    yield(0) also aborts;
    return (1, 2);
}
`
	build2 := func() (*cfg.Program, *sem.Machine) {
		p := build(t, src)
		rts := sem.RuntimeFunc(func(m *sem.Machine, args []sem.Value) error {
			a, _ := m.FirstActivation()
			for a.UnwindContCount() == 0 {
				var ok bool
				a, ok = a.NextActivation()
				if !ok {
					return nil
				}
			}
			m.SetActivation(a)
			m.SetUnwindCont(0)
			m.SetContParam(0, 100)
			return m.Resume()
		})
		m, err := sem.New(p, sem.WithMaxSteps(100000), sem.WithRuntime(rts))
		if err != nil {
			t.Fatal(err)
		}
		return p, m
	}
	pRef, mRef := build2()
	_ = pRef
	ref, err := mRef.Run("f", 7)
	if err != nil {
		t.Fatal(err)
	}
	pOpt, _ := build2()
	Optimize(pOpt.Graph("f"), Options{})
	_, mOpt := func() (*cfg.Program, *sem.Machine) {
		rts := sem.RuntimeFunc(func(m *sem.Machine, args []sem.Value) error {
			a, _ := m.FirstActivation()
			for a.UnwindContCount() == 0 {
				var ok bool
				a, ok = a.NextActivation()
				if !ok {
					return nil
				}
			}
			m.SetActivation(a)
			m.SetUnwindCont(0)
			m.SetContParam(0, 100)
			return m.Resume()
		})
		m, err := sem.New(pOpt, sem.WithMaxSteps(100000), sem.WithRuntime(rts))
		if err != nil {
			t.Fatal(err)
		}
		return pOpt, m
	}()
	got, err := mOpt.Run("f", 7)
	if err != nil {
		t.Fatalf("optimized program went wrong: %v", err)
	}
	if got[0].Bits != ref[0].Bits {
		t.Errorf("optimized %d != reference %d", got[0].Bits, ref[0].Bits)
	}
	// The handler runs: b + 100 where b = a = 7.
	if ref[0].Bits != 107 {
		t.Errorf("reference = %d, want 107", ref[0].Bits)
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	p := build(t, paper.Figure1)
	for _, name := range p.Order {
		Optimize(p.Graph(name), Options{})
	}
	for _, name := range p.Order {
		res := Optimize(p.Graph(name), Options{})
		if res.total() != 0 {
			t.Errorf("%s: second run still changed things: %s", name, res)
		}
	}
}

func TestOptimizeLoopSafe(t *testing.T) {
	// Copies through a loop must not propagate unsoundly.
	p := build(t, `
f(bits32 n) {
    bits32 i, acc;
    i = 0;
    acc = 0;
loop:
    if i == n {
        return (acc);
    }
    acc = acc + i;
    i = i + 1;
    goto loop;
}
`)
	Optimize(p.Graph("f"), Options{})
	if got := run(t, p, "f", 5)[0].Bits; got != 10 {
		t.Errorf("f(5) = %d, want 10", got)
	}
}

func TestConstantPropThroughBranch(t *testing.T) {
	// The same constant on both arms survives the join.
	p := build(t, `
f(bits32 x) {
    bits32 c, r;
    if x == 0 {
        c = 5;
    } else {
        c = 5;
    }
    r = c + 1;
    return (r);
}
`)
	g := p.Graph("f")
	res := Optimize(g, Options{})
	if res.ConstantsFolded == 0 {
		t.Errorf("constant not propagated through join: %s\n%s", res, g)
	}
	if got := run(t, p, "f", 1)[0].Bits; got != 6 {
		t.Errorf("f(1) = %d", got)
	}
}

func TestDifferentConstantsNotMerged(t *testing.T) {
	p := build(t, `
f(bits32 x) {
    bits32 c, r;
    if x == 0 {
        c = 5;
    } else {
        c = 7;
    }
    r = c + 1;
    return (r);
}
`)
	Optimize(p.Graph("f"), Options{})
	if got := run(t, p, "f", 0)[0].Bits; got != 6 {
		t.Errorf("f(0) = %d", got)
	}
	if got := run(t, p, "f", 1)[0].Bits; got != 8 {
		t.Errorf("f(1) = %d", got)
	}
}

func TestPrimFolding(t *testing.T) {
	p := build(t, `
f() {
    bits32 x;
    x = %divu(84, 2);
    return (x);
}
`)
	res := Optimize(p.Graph("f"), Options{})
	if res.ConstantsFolded == 0 {
		t.Errorf("primitive not folded: %s", res)
	}
	if got := run(t, p, "f")[0].Bits; got != 42 {
		t.Errorf("f() = %d", got)
	}
}

func TestFailingPrimNotFolded(t *testing.T) {
	// %divu(1, 0) must not be folded away (and still traps at run time).
	p := build(t, `
f(bits32 take) {
    bits32 x;
    x = 1;
    if take == 1 {
        x = %divu(1, 0);
    }
    return (x);
}
`)
	Optimize(p.Graph("f"), Options{})
	if got := run(t, p, "f", 0)[0].Bits; got != 1 {
		t.Errorf("f(0) = %d", got)
	}
	m, _ := sem.New(p, sem.WithMaxSteps(10000))
	if _, err := m.Run("f", 1); err == nil {
		t.Error("folded-away failing primitive")
	}
}

func TestCascadingBranchFold(t *testing.T) {
	// Constant branches cascade: x=1 -> first branch resolves -> second
	// branch's condition becomes constant too.
	p := build(t, `
f() {
    bits32 x, y;
    x = 1;
    if x == 1 {
        y = 2;
    } else {
        y = 3;
    }
    if y == 2 {
        return (10);
    }
    return (20);
}
`)
	g := p.Graph("f")
	res := Optimize(g, Options{})
	if res.BranchesResolved != 2 {
		t.Errorf("resolved %d branches, want 2: %s\n%s", res.BranchesResolved, res, g)
	}
	if got := run(t, p, "f")[0].Bits; got != 10 {
		t.Errorf("f() = %d", got)
	}
	// Unreachable code disappears from the reachable node set.
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindCopyOut && len(n.Exprs) == 1 {
			if lit, ok := n.Exprs[0].(*syntax.IntLit); ok && lit.Val == 20 {
				t.Error("unreachable return still in graph")
			}
		}
	}
}

func TestGlobalReadsNotAssumedConstant(t *testing.T) {
	// A global may be changed by any callee: its reads are not constants.
	p := build(t, `
bits32 g = 5;
f() {
    bits32 a, b;
    a = g;
    bump();
    b = g;
    return (a + b);
}
bump() {
    g = g + 1;
    return ();
}
`)
	Optimize(p.Graph("f"), Options{})
	if got := run(t, p, "f")[0].Bits; got != 11 {
		t.Errorf("f() = %d, want 11 (5 + 6)", got)
	}
}

func TestCopyChainPropagates(t *testing.T) {
	p := build(t, `
f(bits32 a) {
    bits32 b, c, d;
    b = a;
    c = b;
    d = c;
    return (d);
}
`)
	g := p.Graph("f")
	res := Optimize(g, Options{})
	// All three copies collapse; the return uses a directly.
	if res.AssignsRemoved != 3 {
		t.Errorf("removed %d, want 3: %s\n%s", res.AssignsRemoved, res, g)
	}
	if got := run(t, p, "f", 9)[0].Bits; got != 9 {
		t.Errorf("f(9) = %d", got)
	}
}

func TestSelfAssignmentRemoved(t *testing.T) {
	p := build(t, `
f(bits32 a) {
    bits32 b;
    b = a;
    b = b;
    return (b);
}
`)
	g := p.Graph("f")
	Optimize(g, Options{})
	if got := run(t, p, "f", 4)[0].Bits; got != 4 {
		t.Errorf("f(4) = %d", got)
	}
	if c := countAssigns(g); c != 0 {
		t.Errorf("%d assigns remain:\n%s", c, g)
	}
}

func TestOptimizeFigure10Program(t *testing.T) {
	// The optimizer must leave exception-stack manipulation intact.
	src := paper.Figure8Globals + paper.Figure10Globals +
		"import getMove, makeMove; bits32 BadMove; bits32 NoMoreTiles;" +
		paper.Figure10 + paper.RaiseCutting
	p := build(t, src)
	for _, name := range p.Order {
		Optimize(p.Graph(name), Options{})
	}
	// Memory stores of the handler continuation survive.
	g := p.Graph("TryAMove")
	stores := 0
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindAssign && n.LHSMem != nil {
			stores++
		}
	}
	if stores == 0 {
		t.Errorf("exception-stack push optimized away:\n%s", g)
	}
}

// TestPrunedContinuationsRenumbered: dropping a dead continuation shifts
// the Entry's continuation list, and Interproc renumbers the references
// to those that stay, so the abstract machine still finds b.
func TestPrunedContinuationsRenumbered(t *testing.T) {
	p := build(t, `
f(bits32 n) {
    bits32 r;
    r = q(n) also unwinds to a;
    r = g(b) also cuts to b;
    return (r);
continuation a(r):
    return (r + 100);
continuation b(r):
    return (r + 1);
}
q(bits32 n) { return (n); }
g(bits32 k) { cut to k(5); }
`)
	if res := Interproc(p); res.ContsRemoved != 1 {
		t.Fatalf("removed %d continuations, want 1 (a)", res.ContsRemoved)
	}
	g := p.Graph("f")
	if len(g.Entry.Conts) != 1 || g.Entry.Conts[0].Name != "b" {
		t.Fatalf("continuations after pruning: %+v", g.Entry.Conts)
	}
	for _, n := range g.AllNodes() {
		cfg.WalkNodeExprs(n, func(e syntax.Expr) {
			if v, ok := e.(*syntax.VarExpr); ok && v.Ref == syntax.RefCont && v.Slot != 0 {
				t.Errorf("%s keeps slot %d", v.Name, v.Slot)
			}
		})
	}
	m, err := sem.New(p)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := m.Run("f", 1)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Bits != 6 {
		t.Fatalf("f(1) = %d, want 6", vs[0].Bits)
	}
}
