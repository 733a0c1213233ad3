// Package opt implements the standard scalar optimizations of §6 over
// Abstract C--: constant propagation and folding, copy propagation,
// dead-code elimination, constant-branch resolution, and local common-
// subexpression elimination. None of the passes treats exceptional
// control flow specially: they follow exactly the flow edges and the
// Table 3 dataflow of package dataflow, in which the also-annotations
// already appear as ordinary edges. That is the paper's point — one
// optimizer suffices for every exception-implementation policy.
//
// For the ablation experiments, WithoutExceptionEdges runs the same
// passes over a view of the graph that hides the unwind and cut edges,
// reproducing the classic miscompilation (Hennessy 1981) that motivates
// the annotations.
package opt

import (
	"fmt"
	"strings"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/dataflow"
	"cmm/internal/syntax"
)

// Result counts what the optimizer did.
type Result struct {
	ConstantsFolded  int
	CopiesPropagated int
	AssignsRemoved   int
	BranchesResolved int
	CSEHits          int
	Rounds           int
}

func (r *Result) total() int {
	return r.ConstantsFolded + r.CopiesPropagated + r.AssignsRemoved + r.BranchesResolved + r.CSEHits
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("folded %d, copies %d, removed %d, branches %d, cse %d (rounds %d)",
		r.ConstantsFolded, r.CopiesPropagated, r.AssignsRemoved, r.BranchesResolved, r.CSEHits, r.Rounds)
}

// Options configures the optimizer.
type Options struct {
	// WithoutExceptionEdges hides also-unwinds-to and also-cuts-to edges
	// from every analysis. This is UNSOUND and exists only to reproduce
	// the failure mode the paper's annotations prevent.
	WithoutExceptionEdges bool
	// MaxRounds bounds the pass pipeline; 0 means the default (10).
	MaxRounds int
}

// Optimize runs the pass pipeline on g to a fixed point.
func Optimize(g *cfg.Graph, info *check.Info, opts Options) *Result {
	max := opts.MaxRounds
	if max == 0 {
		max = 10
	}
	res := &Result{}
	for round := 0; round < max; round++ {
		res.Rounds = round + 1
		before := res.total()
		o := &optimizer{g: g, info: info, opts: opts, res: res}
		o.propagate() // constants and copies, then fold and substitute
		o.foldBranches()
		o.deadCode()
		o.localCSE()
		if res.total() == before {
			break
		}
	}
	return res
}

type optimizer struct {
	g    *cfg.Graph
	info *check.Info
	opts Options
	res  *Result
}

// nodes returns the nodes reachable over the flow edges the analysis
// may follow (plus continuation bindings, which stay reachable through
// the Entry node).
func (o *optimizer) nodes() []*cfg.Node { return o.g.Reachable(o.allEdges()) }

// allEdges selects the flow edges the analyses follow: every edge, or
// under WithoutExceptionEdges all but the unwind and cut edges.
func (o *optimizer) allEdges() bool { return !o.opts.WithoutExceptionEdges }

// --- Constant and copy propagation ---

type latKind int

const (
	latTop latKind = iota // unvisited / unknown-optimistic
	latConst
	latCopy
	latBottom
)

type lat struct {
	kind latKind
	val  uint64
	src  string // latCopy: the copied-from variable
}

func meet(a, b lat) lat {
	if a.kind == latTop {
		return b
	}
	if b.kind == latTop {
		return a
	}
	if a == b {
		return a
	}
	return lat{kind: latBottom}
}

type valueMap map[string]lat

func (vm valueMap) get(v string) lat {
	if l, ok := vm[v]; ok {
		return l
	}
	return lat{kind: latTop}
}

func (o *optimizer) isLocal(v string) bool {
	_, ok := o.g.Locals[v]
	return ok
}

// propagate runs a combined constant/copy propagation to a fixed point
// and then rewrites uses.
func (o *optimizer) propagate() {
	nodes := o.nodes()
	in := map[*cfg.Node]valueMap{}
	preds := map[*cfg.Node][]*cfg.Node{}
	for _, n := range nodes {
		n.EachSucc(o.allEdges(), func(s *cfg.Node) { preds[s] = append(preds[s], n) })
	}

	transfer := func(n *cfg.Node, vm valueMap) valueMap {
		out := valueMap{}
		for k, v := range vm {
			out[k] = v
		}
		kill := func(v string) {
			out[v] = lat{kind: latBottom}
			// Any copy of v is invalidated.
			for k, l := range out {
				if l.kind == latCopy && l.src == v {
					out[k] = lat{kind: latBottom}
				}
			}
		}
		switch n.Kind {
		case cfg.KindEntry:
			for _, cb := range n.Conts {
				out[cb.Name] = lat{kind: latBottom}
			}
		case cfg.KindCopyIn:
			for _, v := range n.Vars {
				kill(v)
			}
		case cfg.KindAssign:
			if n.LHSMem == nil {
				l := o.evalLat(n.RHS, vm)
				kill(n.LHSVar)
				if o.isLocal(n.LHSVar) {
					// Self-copies (x := x-shaped) must not record x as a
					// copy of itself.
					if !(l.kind == latCopy && l.src == n.LHSVar) {
						out[n.LHSVar] = l
					}
				}
			}
		}
		return out
	}

	// Iterate to a fixed point.
	changed := true
	for changed {
		changed = false
		for _, n := range nodes {
			merged := valueMap{}
			if n == o.g.Entry {
				// Everything unknown at entry.
			}
			for _, p := range preds[n] {
				pout := transfer(p, in[p])
				for v, l := range pout {
					merged[v] = meet(merged.get(v), l)
				}
				// Variables absent in pout but present in merged meet
				// with top, which keeps them; that is the optimistic
				// treatment of unvisited paths.
			}
			if !sameVM(merged, in[n]) {
				in[n] = merged
				changed = true
			}
		}
	}

	// Rewrite uses.
	for _, n := range nodes {
		vm := in[n]
		if vm == nil {
			vm = valueMap{}
		}
		rewrite := func(e syntax.Expr) syntax.Expr { return o.rewriteExpr(e, vm) }
		for i, e := range n.Exprs {
			n.Exprs[i] = rewrite(e)
		}
		if n.RHS != nil {
			n.RHS = rewrite(n.RHS)
		}
		if n.LHSMem != nil {
			n.LHSMem = &syntax.MemExpr{Type: n.LHSMem.Type, Addr: rewrite(n.LHSMem.Addr)}
			o.info.SetType(n.LHSMem, n.LHSMem.Type)
		}
		if n.Cond != nil {
			n.Cond = rewrite(n.Cond)
		}
		if n.Callee != nil {
			n.Callee = rewrite(n.Callee)
		}
	}
}

func sameVM(a, b valueMap) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// evalLat abstracts expression evaluation over the lattice.
func (o *optimizer) evalLat(e syntax.Expr, vm valueMap) lat {
	switch e := e.(type) {
	case *syntax.IntLit:
		return lat{kind: latConst, val: e.Val}
	case *syntax.VarExpr:
		if !o.isLocal(e.Name) {
			return lat{kind: latBottom}
		}
		l := vm.get(e.Name)
		if l.kind == latTop {
			return lat{kind: latBottom} // uninitialized: treat as unknown
		}
		if l.kind == latConst || l.kind == latBottom {
			if l.kind == latConst {
				return l
			}
			return lat{kind: latCopy, src: e.Name}
		}
		return l // a copy chain
	case *syntax.UnExpr:
		x := o.evalLat(e.X, vm)
		if x.kind != latConst || o.typeOf(e).Kind == syntax.FloatType {
			return lat{kind: latBottom}
		}
		w := o.typeOf(e).Width
		switch e.Op {
		case syntax.MINUS:
			return lat{kind: latConst, val: (-x.val) & mask(w)}
		case syntax.TILDE:
			return lat{kind: latConst, val: (^x.val) & mask(w)}
		case syntax.NOT:
			if x.val == 0 {
				return lat{kind: latConst, val: 1}
			}
			return lat{kind: latConst, val: 0}
		}
		return lat{kind: latBottom}
	case *syntax.BinExpr:
		x := o.evalLat(e.X, vm)
		y := o.evalLat(e.Y, vm)
		if x.kind != latConst || y.kind != latConst {
			return lat{kind: latBottom}
		}
		xt := o.typeOf(e.X)
		if xt.Kind == syntax.FloatType {
			return lat{kind: latBottom}
		}
		w := xt.Width
		if w == 0 {
			w = 64
		}
		v, ok := cfg.EvalWordOp(e.Op, x.val, y.val, w)
		if !ok {
			return lat{kind: latBottom} // don't fold failing operations
		}
		return lat{kind: latConst, val: v}
	case *syntax.PrimExpr:
		args := make([]uint64, len(e.Args))
		for i, a := range e.Args {
			l := o.evalLat(a, vm)
			if l.kind != latConst {
				return lat{kind: latBottom}
			}
			args[i] = l.val
		}
		w := syntax.Word.Width
		if len(e.Args) > 0 {
			w = o.typeOf(e.Args[0]).Width
		}
		v, ok := cfg.EvalPrim(e.Name, args, w)
		if !ok {
			return lat{kind: latBottom}
		}
		return lat{kind: latConst, val: v}
	}
	return lat{kind: latBottom}
}

func (o *optimizer) typeOf(e syntax.Expr) syntax.Type {
	t := o.info.TypeOf(e)
	if t == (syntax.Type{}) {
		return syntax.Word
	}
	return t
}

func mask(w int) uint64 {
	if w <= 0 || w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// rewriteExpr substitutes constants and copies into e, bottom-up.
func (o *optimizer) rewriteExpr(e syntax.Expr, vm valueMap) syntax.Expr {
	if e == nil {
		return nil
	}
	// First try to fold the whole expression to a constant.
	if l := o.evalLat(e, vm); l.kind == latConst {
		if _, already := e.(*syntax.IntLit); !already {
			t := o.typeOf(e)
			if t.Kind == syntax.BitsType {
				lit := &syntax.IntLit{Val: l.val, Type: t}
				o.info.SetType(lit, t)
				o.res.ConstantsFolded++
				return lit
			}
		}
		return e
	}
	switch e := e.(type) {
	case *syntax.VarExpr:
		if o.isLocal(e.Name) {
			if l := vm.get(e.Name); l.kind == latCopy && l.src != e.Name && o.isLocal(l.src) {
				o.res.CopiesPropagated++
				v := &syntax.VarExpr{Name: l.src}
				o.info.SetType(v, o.typeOf(e))
				return v
			}
		}
		return e
	case *syntax.MemExpr:
		ne := &syntax.MemExpr{Type: e.Type, Addr: o.rewriteExpr(e.Addr, vm)}
		o.info.SetType(ne, e.Type)
		return ne
	case *syntax.UnExpr:
		ne := &syntax.UnExpr{Op: e.Op, X: o.rewriteExpr(e.X, vm)}
		o.info.SetType(ne, o.typeOf(e))
		return ne
	case *syntax.BinExpr:
		ne := &syntax.BinExpr{Op: e.Op, X: o.rewriteExpr(e.X, vm), Y: o.rewriteExpr(e.Y, vm)}
		o.info.SetType(ne, o.typeOf(e))
		return ne
	case *syntax.PrimExpr:
		ne := &syntax.PrimExpr{Name: e.Name}
		for _, a := range e.Args {
			ne.Args = append(ne.Args, o.rewriteExpr(a, vm))
		}
		o.info.SetType(ne, o.typeOf(e))
		return ne
	}
	return e
}

// --- Constant branch resolution ---

func (o *optimizer) foldBranches() {
	for _, n := range o.nodes() {
		if n.Kind != cfg.KindBranch {
			continue
		}
		lit, ok := n.Cond.(*syntax.IntLit)
		if !ok {
			continue
		}
		target := n.Succ[1]
		if lit.Val != 0 {
			target = n.Succ[0]
		}
		// Turn the branch into a direct goto; unreachable nodes drop out
		// of Nodes() automatically.
		n.Kind = cfg.KindGoto
		n.Cond = nil
		n.Target = nil
		n.Succ = []*cfg.Node{target}
		o.res.BranchesResolved++
	}
	o.collapseGotos()
}

// collapseGotos removes pass-through Goto nodes created by branch
// folding, mirroring the translator's cleanup.
func (o *optimizer) collapseGotos() {
	resolve := func(n *cfg.Node) *cfg.Node {
		seen := map[*cfg.Node]bool{}
		for n != nil && n.Kind == cfg.KindGoto && n.Target == nil && len(n.Succ) == 1 && !seen[n] {
			seen[n] = true
			n = n.Succ[0]
		}
		return n
	}
	for _, n := range o.g.AllNodes() {
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
	o.g.Entry = resolve(o.g.Entry)
	for name, n := range o.g.ContMap {
		o.g.ContMap[name] = resolve(n)
	}
}

// --- Dead code elimination ---

func (o *optimizer) deadCode() {
	for {
		lv := dataflow.LivenessOver(o.g, o.allEdges())
		removed := 0
		for _, n := range o.nodes() {
			if n.Kind != cfg.KindAssign || n.LHSMem != nil {
				continue
			}
			if !o.isLocal(n.LHSVar) {
				continue // assignments to globals are always observable
			}
			if lv.LiveOut(n, n.LHSVar) {
				continue
			}
			// Dead: bypass the node.
			o.bypass(n)
			removed++
		}
		o.res.AssignsRemoved += removed
		if removed == 0 {
			return
		}
	}
}

// bypass removes a single-successor node by redirecting all edges that
// point at it to its successor.
func (o *optimizer) bypass(n *cfg.Node) {
	succ := n.Succ[0]
	redirect := func(p *cfg.Node) *cfg.Node {
		if p == n {
			return succ
		}
		return p
	}
	for _, x := range o.g.AllNodes() {
		for i, s := range x.Succ {
			x.Succ[i] = redirect(s)
		}
		if x.Bundle != nil {
			for i, s := range x.Bundle.Returns {
				x.Bundle.Returns[i] = redirect(s)
			}
			for i, s := range x.Bundle.Unwinds {
				x.Bundle.Unwinds[i] = redirect(s)
			}
			for i, s := range x.Bundle.Cuts {
				x.Bundle.Cuts[i] = redirect(s)
			}
		}
		for i := range x.Conts {
			x.Conts[i].Node = redirect(x.Conts[i].Node)
		}
	}
	if o.g.Entry == n {
		o.g.Entry = succ
	}
	for name, x := range o.g.ContMap {
		if x == n {
			o.g.ContMap[name] = succ
		}
	}
}

// --- Local common-subexpression elimination ---

func (o *optimizer) localCSE() {
	nodes := o.nodes()
	preds := map[*cfg.Node]int{}
	for _, n := range nodes {
		n.EachSucc(o.allEdges(), func(s *cfg.Node) { preds[s]++ })
	}
	visited := map[*cfg.Node]bool{}
	for _, head := range nodes {
		if visited[head] {
			continue
		}
		// A block head: not an Assign chained from a single Assign pred.
		avail := map[string]string{} // canonical expr -> variable holding it
		n := head
		for n != nil && !visited[n] {
			visited[n] = true
			if n.Kind != cfg.KindAssign || len(n.Succ) != 1 {
				break
			}
			if preds[n] > 1 {
				avail = map[string]string{}
			}
			if n.LHSMem == nil && o.isLocal(n.LHSVar) {
				key := exprKey(n.RHS)
				hit := false
				if prev, ok := avail[key]; ok && worthCSE(n.RHS) && prev != n.LHSVar {
					v := &syntax.VarExpr{Name: prev}
					o.info.SetType(v, o.typeOf(n.RHS))
					n.RHS = v
					o.res.CSEHits++
					hit = true
				}
				// The definition invalidates expressions that mention the
				// defined variable, and any expression held in it.
				for k, holder := range avail {
					if holder == n.LHSVar || exprKeyMentions(k, n.LHSVar) {
						delete(avail, k)
					}
				}
				if !hit && worthCSE(n.RHS) && !usesVar(n.RHS, n.LHSVar) {
					avail[key] = n.LHSVar
				} else if hit && !exprKeyMentions(key, n.LHSVar) {
					avail[key] = n.LHSVar
				}
			} else if n.LHSMem != nil {
				// A store invalidates every load-bearing expression.
				for k := range avail {
					if strings.Contains(k, "[") {
						delete(avail, k)
					}
				}
			}
			if preds[n.Succ[0]] > 1 {
				break
			}
			n = n.Succ[0]
		}
	}
}

func worthCSE(e syntax.Expr) bool {
	switch e.(type) {
	case *syntax.BinExpr, *syntax.UnExpr, *syntax.PrimExpr, *syntax.MemExpr:
		return true
	}
	return false
}

func usesVar(e syntax.Expr, v string) bool {
	set := map[string]bool{}
	dataflow.FreeVars(e, set)
	return set[v]
}

func exprKey(e syntax.Expr) string { return syntax.ExprString(e) }

func exprKeyMentions(key, v string) bool {
	// Conservative: substring match on word boundaries.
	idx := 0
	for {
		i := strings.Index(key[idx:], v)
		if i < 0 {
			return false
		}
		i += idx
		before := i == 0 || !isIdentChar(key[i-1])
		after := i+len(v) >= len(key) || !isIdentChar(key[i+len(v)])
		if before && after {
			return true
		}
		idx = i + 1
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '.' || c == '$' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
