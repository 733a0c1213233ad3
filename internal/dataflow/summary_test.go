package dataflow

import (
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/syntax"
)

// TestSummaryTransitiveCut: may-cut propagates backward through
// unannotated call chains.
func TestSummaryTransitiveCut(t *testing.T) {
	prog := build(t, `
export a, b, c;
a(bits32 x, bits32 kv) { bits32 r; r = b(x, kv); return (r); }
b(bits32 x, bits32 kv) { bits32 r; r = c(x, kv); return (r); }
c(bits32 x, bits32 kv) {
    if x == 0 { cut to kv(1) also aborts; }
    return (x);
}
`)
	s := Summarize(prog)
	for _, proc := range []string{"a", "b", "c"} {
		if !s.Procs[proc].MayCut {
			t.Errorf("%s: MayCut = false, want true", proc)
		}
	}
}

// TestSummaryCutBarrier: a call site annotated "also cuts to" without
// "also aborts" asserts every escaping cut lands in that activation (a
// cut trying to pass it traps), so may-cut stops propagating there.
// This is what keeps callers of catch-all wrappers — e.g. the MiniM3
// run_P procedures — from being flagged.
func TestSummaryCutBarrier(t *testing.T) {
	prog := build(t, `
export outer, wrapper, raiser;
outer(bits32 x) { bits32 r; r = wrapper(x); return (r); }
wrapper(bits32 x) {
    bits32 r, v;
    r = raiser(x, k) also cuts to k;
    return (r);
continuation k(v):
    return (v);
}
raiser(bits32 x, bits32 kv) {
    if x == 0 { cut to kv(1) also aborts; }
    return (x);
}
`)
	s := Summarize(prog)
	if !s.Procs["raiser"].MayCut {
		t.Error("raiser: MayCut = false, want true")
	}
	if s.Procs["wrapper"].MayCut {
		t.Error("wrapper catches every cut (also cuts to, no also aborts) but MayCut = true")
	}
	if s.Procs["outer"].MayCut {
		t.Error("outer: MayCut = true, want false — the wrapper is a barrier")
	}
}

// TestSummaryAbortReopensPropagation: "also aborts" admits cuts passing
// through, so the barrier does not apply.
func TestSummaryAbortReopensPropagation(t *testing.T) {
	prog := build(t, `
export outer, mid, raiser;
outer(bits32 x) { bits32 r; r = mid(x); return (r); }
mid(bits32 x) {
    bits32 r, v;
    r = raiser(x, k) also cuts to k also aborts;
    return (r);
continuation k(v):
    return (v);
}
raiser(bits32 x, bits32 kv) {
    if x == 0 { cut to kv(1) also aborts; }
    return (x);
}
`)
	s := Summarize(prog)
	if !s.Procs["mid"].MayCut {
		t.Error("mid: MayCut = false, want true — also aborts admits escaping cuts")
	}
	if !s.Procs["outer"].MayCut {
		t.Error("outer: MayCut = false, want true")
	}
}

// TestSummaryYieldAndArities: may-yield from the slow-but-solid
// primitives, and return arities collected through tail calls (a jump's
// returns are the jumper's returns).
func TestSummaryYieldAndArities(t *testing.T) {
	prog := build(t, `
export f, g, h;
f(bits32 x) { bits32 r; r = %%divu(x, 2); return (r); }
g(bits32 x) { jump h(x); }
h(bits32 x) {
    if x == 0 { return <0/1> (x); }
    return <1/1> (x);
}
`)
	s := Summarize(prog)
	if !s.Procs["f"].MayYield {
		t.Error("f: MayYield = false, want true (solid division yields on failure)")
	}
	if s.Procs["f"].MayCut {
		t.Error("f: MayCut = true, want false")
	}
	for _, proc := range []string{"g", "h"} {
		sum := s.Procs[proc]
		if !sum.RetArities[1] || sum.ArityUnknown {
			t.Errorf("%s: RetArities = %v (unknown=%v), want {1}", proc, sum.RetArities, sum.ArityUnknown)
		}
		if !sum.ReturnsNormally {
			t.Errorf("%s: ReturnsNormally = false, want true (return <1/1> is the normal return)", proc)
		}
	}
}

// TestSummaryIncompleteOnComputedCallee: calling through a computed
// procedure value marks the summary incomplete rather than guessing.
func TestSummaryIncompleteOnComputedCallee(t *testing.T) {
	prog := build(t, `
export f, g;
f(bits32 p) { bits32 r; r = p(1); return (r); }
g(bits32 x) { return (x); }
`)
	s := Summarize(prog)
	if !s.Procs["f"].Incomplete {
		t.Error("f calls a computed value; Incomplete = false, want true")
	}
	if s.Procs["g"].Incomplete {
		t.Error("g: Incomplete = true, want false")
	}
}

// TestResolveCallee: direct names resolve to procedures, imports to
// CalleeImport, continuations to CalleeCont, locals to CalleeUnknown.
func TestResolveCallee(t *testing.T) {
	prog := build(t, `
import print;
export f, g;
f(bits32 p) {
    bits32 r, v;
    r = g(p);
    r = print(r);
    r = p(r);
    cut to k(r) also cuts to k;
    return (r);
continuation k(v):
    return (v);
}
g(bits32 x) { return (x); }
`)
	g := prog.Graphs["f"]
	kinds := map[string]CalleeKind{}
	for _, n := range g.Nodes() {
		var target syntax.Expr
		switch n.Kind {
		case cfg.KindCall:
			target = n.Callee
		case cfg.KindCutTo:
			target = n.Callee
		default:
			continue
		}
		name, kind := ResolveCallee(target)
		kinds[name] = kind
	}
	want := map[string]CalleeKind{
		"g":     CalleeProc,
		"print": CalleeImport,
		"p":     CalleeUnknown,
		"k":     CalleeCont,
	}
	for name, kind := range want {
		if kinds[name] != kind {
			t.Errorf("ResolveCallee(%s) = %v, want %v", name, kinds[name], kind)
		}
	}
}
