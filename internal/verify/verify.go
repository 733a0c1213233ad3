// Package verify is a static well-formedness verifier for Abstract C--:
// the §4 rules about weak continuations and call-site annotations,
// checked before any code runs. The operational semantics (internal/sem)
// and the run-time interface (internal/sem/rts.go) already make every
// violation "go wrong" dynamically — cutting to a dead continuation,
// cutting or unwinding past an unannotated call site, returning with the
// wrong arity all trap. This pass reports, at compile time and with
// source positions, the conditions that make those traps reachable, so a
// front end whose annotations lie is caught before it corrupts liveness,
// register allocation, or a dispatcher.
//
// Severity follows the unsoundness/imprecision split:
//
//   - error: the module can trap on a path the verifier can exhibit
//     statically (a lying or missing annotation, an arity mismatch, a
//     continuation escaping the activation it dies with);
//   - warning: the module is suspicious but may be dynamically safe (a
//     continuation stored to memory, a call that can enter the run-time
//     system with no exceptional annotation, unreachable code after a
//     call that never returns normally, and — under Options.Strict —
//     annotations provably useless for their callee).
//
// The checks are flow-insensitive over reachable nodes and use the
// interprocedural summaries of dataflow.CallGraph.Summarize. Indirect transfers
// (computed callees) are not checked; the semantics still catches them.
// Every finding is a diag.Diagnostic with pass name "verify".
package verify

import (
	"sort"

	"cmm/internal/cfg"
	"cmm/internal/dataflow"
	"cmm/internal/diag"
	"cmm/internal/syntax"
)

// Pass is the pass name findings carry.
const Pass = "verify"

// Options configures a verification run.
type Options struct {
	// Strict additionally warns about annotations that are provably
	// useless for their (statically resolved) callee.
	Strict bool
}

// Run verifies a translated program and returns its findings in
// deterministic order: procedures in program order, nodes in each
// graph's stable depth-first order.
func Run(prog *cfg.Program, opts Options) diag.List {
	v := &verifier{
		prog: prog,
		opts: opts,
		sums: dataflow.NewCallGraph(prog).Summarize(),
	}
	if prog.Source != nil {
		v.file = prog.Source.File
	}
	for _, g := range prog.Procs {
		v.proc(g)
	}
	return v.diags
}

type verifier struct {
	prog  *cfg.Program
	opts  Options
	sums  []dataflow.Summary // by procedure slot
	file  string
	diags diag.List
}

func (v *verifier) errorf(pos syntax.Pos, format string, args ...any) {
	v.diags = append(v.diags, diag.Errorf(Pass, v.file, pos.Line, pos.Col, format, args...))
}

func (v *verifier) warnf(pos syntax.Pos, format string, args ...any) {
	v.diags = append(v.diags, diag.Warningf(Pass, v.file, pos.Line, pos.Col, format, args...))
}

func (v *verifier) proc(g *cfg.Graph) {
	for _, n := range g.Nodes() {
		switch n.Kind {
		case cfg.KindExit:
			if n.RetIndex < 0 || n.RetIndex > n.RetArity {
				v.errorf(n.Pos, "return <%d/%d>: index exceeds continuation count", n.RetIndex, n.RetArity)
			}
		case cfg.KindCopyOut:
			v.copyOut(g, n)
		case cfg.KindAssign:
			v.assign(g, n)
		case cfg.KindCall:
			v.call(g, n)
		case cfg.KindCutTo:
			v.cut(g, n)
		}
	}
}

// contMentions returns the names of the enclosing procedure's
// continuations mentioned (directly) in e, in source order.
func (v *verifier) contMentions(e syntax.Expr) []string {
	var out []string
	cfg.WalkExpr(e, func(e syntax.Expr) {
		ve, ok := e.(*syntax.VarExpr)
		if !ok {
			return
		}
		if ve.Ref == syntax.RefCont {
			out = append(out, ve.Name)
		}
	})
	return out
}

// copyOut flags weak continuations escaping through the value-passing
// area of a return or tail call (§4.1: a continuation "is valid only as
// long as its activation is live"). Returning or jumping deallocates the
// activation the continuation lives in, so the escaped value is dead on
// arrival. Continuations passed as ordinary call arguments are the
// paper's intended idiom and are not flagged.
func (v *verifier) copyOut(g *cfg.Graph, n *cfg.Node) {
	if len(n.Succ) != 1 {
		return
	}
	var how string
	switch n.Succ[0].Kind {
	case cfg.KindExit:
		how = "returned"
	case cfg.KindJump:
		how = "passed to a tail call"
	default:
		return
	}
	for _, e := range n.Exprs {
		for _, k := range v.contMentions(e) {
			v.errorf(n.Pos, "continuation %s is %s, but it dies when %s's activation is deallocated (§4.1)", k, how, g.Name)
		}
	}
}

// assign flags a weak continuation stored into memory or a global
// register. The store itself is legal — the Figure 10 exception-stack
// dispatcher does exactly this — but the stored value outlives no one:
// it is dead the moment its activation returns, and the verifier cannot
// prove the load sites run before that (§4.1). Warning, not error.
func (v *verifier) assign(g *cfg.Graph, n *cfg.Node) {
	var dest string
	switch {
	case n.LHSMem != nil:
		dest = "memory"
	case n.LHSVar != nil:
		if n.LHSVar.Ref == syntax.RefLocal {
			return
		}
		dest = "global " + n.LHSVar.Name
	default:
		return
	}
	for _, k := range v.contMentions(n.RHS) {
		v.warnf(n.Pos, "continuation %s escapes into %s; the value is dead once %s's activation returns (§4.1)", k, dest, g.Name)
	}
}

// cut checks a same-activation cut against the cut's own annotations:
// the semantics rejects "cut to k" inside k's own procedure unless the
// cut is annotated "also cuts to k" (§4.2 — the annotation is what makes
// the edge visible to the optimizer). Cuts through continuation values
// received from elsewhere are checked at call sites instead (may-cut
// summaries).
func (v *verifier) cut(g *cfg.Graph, n *cfg.Node) {
	k, kind := dataflow.ResolveCallee(n.Callee)
	if kind != dataflow.CalleeCont {
		return
	}
	name, target := k.Name, g.Entry.Conts[k.Slot].Node
	if n.Bundle != nil {
		for _, c := range n.Bundle.Cuts {
			if c == target {
				return
			}
		}
	}
	v.errorf(n.Pos, "cut to %s in the same activation without \"also cuts to %s\" (§4.2); the semantics traps here", name, name)
}

// call checks one call site's annotations against the callee's computed
// interprocedural summary (§4.4: annotations must over-approximate what
// the callee can do).
func (v *verifier) call(g *cfg.Graph, n *cfg.Node) {
	b := n.Bundle
	alt := b.AlternateCount()

	if n.IsYield {
		if !b.HasExceptionalEdge() {
			v.warnf(n.Pos, "yield enters the run-time system with no exceptional annotation; a dispatcher can only resume this site normally")
		}
		return
	}

	ref, kind := dataflow.ResolveCallee(n.Callee)
	switch kind {
	case dataflow.CalleeImport:
		if alt != 0 {
			v.errorf(n.Pos, "foreign callee %s always returns normally (<0/0>) but the call site has %d alternate return continuations", ref.Name, alt)
		}
		if v.opts.Strict && (len(b.Cuts) > 0 || len(b.Unwinds) > 0 || b.Abort) {
			v.warnf(n.Pos, "useless annotation: foreign callee %s can neither cut nor yield", ref.Name)
		}
		return
	case dataflow.CalleeProc:
		// Checked below.
	default:
		return // computed callee: nothing static to check
	}

	callee, s := ref.Name, &v.sums[ref.Slot]

	// Missing "also cuts to"/"also aborts" on a may-cut callee: if the
	// cut executes, the semantics traps either at this frame ("not
	// listed in the suspended call's also cuts to") or past it ("cut
	// past a call site without also aborts").
	flaggedCut := false
	if s.MayCut && len(b.Cuts) == 0 && !b.Abort {
		v.errorf(n.Pos, "call to %s, which may cut to an outer activation, has neither \"also cuts to\" nor \"also aborts\" (§4.4)", callee)
		flaggedCut = true
	}

	// A may-yield callee at a site with no exceptional edge at all:
	// legal — a dispatcher may resume the top activation normally — but
	// it leaves the run-time system no other option.
	if !flaggedCut && s.MayYield && !b.HasExceptionalEdge() {
		v.warnf(n.Pos, "call to %s may enter the run-time system (yield) but the site has no exceptional annotation; a dispatcher can only resume it normally", callee)
	}

	// Every return arity the callee can cite must match this site's
	// alternate count, or the return traps (§4.2, Figures 3/4).
	for _, arity := range sortedArities(s.RetArities) {
		if arity != alt {
			v.errorf(n.Pos, "callee %s returns <m/%d> but the call site has %d alternate return continuations", callee, arity, alt)
		}
	}

	// No execution of the callee reaches a normal return: code at the
	// normal return continuation is unreachable.
	if !s.ReturnsNormally {
		v.warnf(n.Pos, "callee %s never returns normally; code at this call's normal return continuation is unreachable", callee)
	}

	if v.opts.Strict && !s.Incomplete {
		if (len(b.Cuts) > 0 || b.Abort) && !s.MayCut && !s.MayYield {
			v.warnf(n.Pos, "useless annotation: callee %s can neither cut nor yield", callee)
		}
		if len(b.Unwinds) > 0 && !s.MayYield {
			v.warnf(n.Pos, "useless \"also unwinds to\": callee %s cannot yield", callee)
		}
	}
}

func sortedArities(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
