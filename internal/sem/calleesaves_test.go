package sem

import (
	"strings"
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/syntax"
)

// TestCutKillsCalleeSavesVariables checks the ρ′ \ σ′ part of the CutTo
// rule: when control cuts to a continuation, variables the optimizer
// placed in callee-saves registers (via a CalleeSaves node) are removed
// from the restored environment — the handler must not rely on them
// (§4.2: "the callee-saves registers must be considered killed").
//
// CalleeSaves nodes are introduced only by optimizers, so this test
// splices one into a translated graph by hand.
func TestCutKillsCalleeSavesVariables(t *testing.T) {
	src := `
f(bits32 y) {
    bits32 r;
    r = g(k) also cuts to k;
    return (r);
continuation k:
    return (y);
}
g(bits32 kv) {
    cut to kv() also aborts;
}
`
	p := compile(t, src)
	g := p.Graph("f")
	// Splice a CalleeSaves {y} node immediately before the call,
	// simulating an optimizer that decided to keep y in a callee-saves
	// register across the call.
	var call *cfg.Node
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindCall {
			call = n
		}
	}
	if call == nil {
		t.Fatal("no call")
	}
	cs := g.NewNode(cfg.KindCalleeSaves, call.Pos)
	cs.Saved = []*syntax.VarExpr{local(g, "y")}
	// Redirect the call's predecessor (the CopyOut) through the new node.
	preds := g.Preds()
	co := preds[call][0]
	cs.Succ = []*cfg.Node{call}
	for i, s := range co.Succ {
		if s == call {
			co.Succ[i] = cs
		}
	}

	m, err := New(p, WithMaxSteps(100000))
	if err != nil {
		t.Fatal(err)
	}
	// Without the CalleeSaves node the program would return y; with it,
	// the cut kills y and the handler's read of y goes wrong.
	_, err = m.Run("f", 7)
	if err == nil {
		t.Fatal("expected the handler's read of a killed callee-saves variable to go wrong")
	}
	if !strings.Contains(err.Error(), "uninitialized variable y") {
		t.Fatalf("wrong error: %v", err)
	}
}

// TestNormalReturnRestoresCalleeSaves: the same graph surgery, but the
// callee returns normally — the Exit rule restores the full environment,
// so y is intact.
func TestNormalReturnRestoresCalleeSaves(t *testing.T) {
	src := `
f(bits32 y) {
    bits32 r;
    r = g(k) also cuts to k;
    return (r + y);
continuation k:
    return (y);
}
g(bits32 kv) {
    return (1);
}
`
	p := compile(t, src)
	g := p.Graph("f")
	var call *cfg.Node
	for _, n := range g.Nodes() {
		if n.Kind == cfg.KindCall {
			call = n
		}
	}
	cs := g.NewNode(cfg.KindCalleeSaves, call.Pos)
	cs.Saved = []*syntax.VarExpr{local(g, "y")}
	preds := g.Preds()
	co := preds[call][0]
	cs.Succ = []*cfg.Node{call}
	for i, s := range co.Succ {
		if s == call {
			co.Succ[i] = cs
		}
	}
	m, err := New(p, WithMaxSteps(100000))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := m.Run("f", 7)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Bits != 8 {
		t.Fatalf("got %d, want 8", vs[0].Bits)
	}
}

// local returns a reference to g's local name.
func local(g *cfg.Graph, name string) *syntax.VarExpr {
	for i, l := range g.Locals {
		if l.Name == name {
			return syntax.NewVar(name, syntax.RefLocal, i, l.Type)
		}
	}
	panic("no local " + name)
}
