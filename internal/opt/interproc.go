package opt

import (
	"fmt"

	"cmm/internal/cfg"
	"cmm/internal/dataflow"
	"cmm/internal/syntax"
)

// InterprocResult counts what the interprocedural pass did.
type InterprocResult struct {
	// SitesQuieted: call sites whose callee was proved quiet and whose
	// exceptional annotations were dropped.
	SitesQuieted int
	// CutEdges, UnwindEdges, Aborts: annotation edges removed from those
	// sites.
	CutEdges, UnwindEdges, Aborts int
	// ContsRemoved: continuation bindings that became unreferenced once
	// the edges were gone and were removed from their procedures.
	ContsRemoved int
}

// String summarizes the result.
func (r *InterprocResult) String() string {
	return fmt.Sprintf("quieted %d sites (cuts %d, unwinds %d, aborts %d), removed %d conts",
		r.SitesQuieted, r.CutEdges, r.UnwindEdges, r.Aborts, r.ContsRemoved)
}

// Interproc runs the summary-driven interprocedural pass: at every call
// site whose callee provably neither cuts nor yields (under the
// barrier-free summaries of dataflow.ConsSummarize), the "also cuts to",
// "also unwinds to", and "also aborts" annotations are dead — no
// execution of the callee can reach a dispatcher or a cut that would
// consult them — so the pass removes them. Alternate-return
// continuations are untouched: they are ordinary control flow.
// Continuations that no remaining annotation or expression references
// are then unbound from their procedures, which shrinks frames (their
// (pc, sp) blocks disappear) and can demote a procedure from the
// cut-target whole-bank rule to precise callee-saves accounting.
//
// The pass is semantics-preserving for every engine and every
// dispatcher: an annotation is only consulted when a suspended
// activation of its call site is walked or cut through, and a quiet
// callee guarantees the site is never suspended at walk time and never
// cut through. Observable event streams are unchanged.
func Interproc(prog *cfg.Program) *InterprocResult {
	res := &InterprocResult{}
	cons := dataflow.NewCallGraph(prog).ConsSummarize()
	for _, g := range prog.Procs {
		for _, n := range g.Nodes() {
			if n.Kind != cfg.KindCall || n.IsYield || n.Bundle == nil {
				continue
			}
			b := n.Bundle
			if len(b.Cuts) == 0 && len(b.Unwinds) == 0 && !b.Abort {
				continue
			}
			callee, kind := dataflow.ResolveCallee(n.Callee)
			quiet := kind == dataflow.CalleeImport ||
				kind == dataflow.CalleeProc && cons.Procs[callee.Slot].Quiet()
			if !quiet {
				continue
			}
			res.SitesQuieted++
			res.CutEdges += len(b.Cuts)
			res.UnwindEdges += len(b.Unwinds)
			if b.Abort {
				res.Aborts++
			}
			b.Cuts, b.Unwinds, b.Abort = nil, nil, false
		}
		res.ContsRemoved += pruneConts(g)
	}
	return res
}

// pruneConts removes continuation bindings that nothing references:
// their entry node is unreachable over flow edges alone, and no
// reachable node mentions them in an expression (a cut-to target or a
// continuation value passed as data keeps its binding). Runs to a fixed
// point because keeping one continuation can reference another.
func pruneConts(g *cfg.Graph) int {
	// Flow reachability WITHOUT the Entry→Conts binding edges: a
	// continuation reached only through its binding is a candidate.
	// Visiting a node also marks the continuations its expressions
	// mention, by slot, so a kept continuation's body can in turn keep
	// others.
	reached := map[*cfg.Node]bool{}
	mentioned := make([]bool, len(g.Entry.Conts))
	var visit func(n *cfg.Node)
	visit = func(n *cfg.Node) {
		if n == nil || reached[n] {
			return
		}
		reached[n] = true
		cfg.WalkNodeExprs(n, func(e syntax.Expr) {
			if v, ok := e.(*syntax.VarExpr); ok && v.Ref == syntax.RefCont {
				mentioned[v.Slot] = true
			}
		})
		for _, s := range n.FlowSuccs() {
			visit(s)
		}
	}
	visit(g.Entry)
	for changed := true; changed; {
		changed = false
		for k, cb := range g.Entry.Conts {
			if mentioned[k] && !reached[cb.Node] {
				visit(cb.Node)
				changed = true
			}
		}
	}

	removed := 0
	var kept []cfg.ContBinding
	for k, cb := range g.Entry.Conts {
		if reached[cb.Node] || mentioned[k] {
			kept = append(kept, cb)
		} else {
			delete(g.ContMap, cb.Name)
			removed++
		}
	}
	g.Entry.Conts = kept
	if removed > 0 {
		g.NumberConts()
	}
	return removed
}
