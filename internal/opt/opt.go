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
	"slices"
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
	o := newOptimizer(g, info, opts, res)
	for round := 0; round < max; round++ {
		res.Rounds = round + 1
		before := res.total()
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

	vars  []string         // the sorted locals: the lattice vectors' index
	index map[string]int32 // a local's position in vars
	// nodes are the nodes reachable over the flow edges the analysis may
	// follow (plus continuation bindings, which stay reachable through
	// the Entry node). foldBranches and deadCode walk again when they
	// change an edge.
	nodes []*cfg.Node
}

func newOptimizer(g *cfg.Graph, info *check.Info, opts Options, res *Result) *optimizer {
	o := &optimizer{g: g, info: info, opts: opts, res: res,
		vars: dataflow.SortedLocals(g), index: make(map[string]int32, len(g.Locals))}
	for i, v := range o.vars {
		o.index[v] = int32(i)
	}
	o.walk()
	return o
}

// walk recomputes o.nodes after a pass changed edges.
func (o *optimizer) walk() { o.nodes = o.g.Reachable(o.allEdges()) }

// allEdges selects the flow edges the analyses follow: every edge, or
// under WithoutExceptionEdges all but the unwind and cut edges.
func (o *optimizer) allEdges() bool { return !o.opts.WithoutExceptionEdges }

// --- Constant and copy propagation ---

type latKind uint8

const (
	latTop latKind = iota // unvisited / unknown-optimistic
	latConst
	latCopy
	latBottom
)

type lat struct {
	val  uint64
	src  int32 // latCopy: the copied-from local's index in o.vars
	kind latKind
}

func meet(a, b lat) lat {
	switch {
	case a.kind == latTop || a == b:
		return b
	case b.kind == latTop:
		return a
	}
	return lat{kind: latBottom}
}

func (o *optimizer) isLocal(v string) bool { _, ok := o.index[v]; return ok }

// propagate runs a combined constant/copy propagation to a fixed point
// and then rewrites uses.
func (o *optimizer) propagate() {
	in := o.solve()
	nv := len(o.vars)
	for i, n := range o.nodes {
		vm := in[i*nv : (i+1)*nv]
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

// solve computes every node's in vector: o.nodes[i]'s is
// in[i*len(o.vars):(i+1)*len(o.vars)], and the zero lat is ⊤. A node's
// out vector is cached and recomputed only when its in vector changes,
// and a node is revisited only when a predecessor's did. The lattice is
// not monotone (evalLat reads ⊤ as ⊥), so the fixed point depends on
// the visit order: the solver keeps the round-robin order over o.nodes,
// and what it skips would recompute the same vectors.
func (o *optimizer) solve() []lat {
	nodes, nv := o.nodes, len(o.vars)
	pos := make([]int32, o.g.NumIDs())
	for i, n := range nodes {
		pos[n.ID] = int32(i)
	}
	preds := make([][]int32, len(nodes))
	for i, n := range nodes {
		n.EachSucc(o.allEdges(), func(s *cfg.Node) { preds[pos[s.ID]] = append(preds[pos[s.ID]], int32(i)) })
	}
	in, out := make([]lat, len(nodes)*nv), make([]lat, len(nodes)*nv)
	dirty := make([]bool, len(nodes))
	for i, n := range nodes {
		o.transfer(n, in[i*nv:(i+1)*nv], out[i*nv:(i+1)*nv])
		dirty[i] = true
	}
	merged := make([]lat, nv)
	for changed := true; changed; {
		changed = false
		for i, n := range nodes {
			if !dirty[i] {
				continue
			}
			dirty[i] = false
			clear(merged)
			for _, p := range preds[i] {
				for k, l := range out[int(p)*nv : int(p+1)*nv] {
					merged[k] = meet(merged[k], l)
				}
			}
			if vin := in[i*nv : (i+1)*nv]; !slices.Equal(merged, vin) {
				copy(vin, merged)
				o.transfer(n, vin, out[i*nv:(i+1)*nv])
				n.EachSucc(o.allEdges(), func(s *cfg.Node) { dirty[pos[s.ID]] = true })
				changed = true
			}
		}
	}
	return in
}

// transfer computes n's out vector from its in vector.
func (o *optimizer) transfer(n *cfg.Node, in, out []lat) {
	copy(out, in)
	kill := func(v string) {
		i, ok := o.index[v]
		if !ok {
			return
		}
		out[i] = lat{kind: latBottom}
		// Any copy of v is invalidated.
		for k, l := range out {
			if l.kind == latCopy && l.src == i {
				out[k] = lat{kind: latBottom}
			}
		}
	}
	switch n.Kind {
	case cfg.KindEntry:
		for _, cb := range n.Conts {
			kill(cb.Name)
		}
	case cfg.KindCopyIn:
		for _, v := range n.Vars {
			kill(v)
		}
	case cfg.KindAssign:
		if n.LHSMem == nil {
			l := o.evalLat(n.RHS, in)
			kill(n.LHSVar)
			// Self-copies (x := x-shaped) must not record x as a copy of
			// itself.
			if i, ok := o.index[n.LHSVar]; ok && !(l.kind == latCopy && l.src == i) {
				out[i] = l
			}
		}
	}
}

// evalLat abstracts expression evaluation over the lattice.
func (o *optimizer) evalLat(e syntax.Expr, vm []lat) lat {
	switch e := e.(type) {
	case *syntax.IntLit:
		return lat{kind: latConst, val: e.Val}
	case *syntax.VarExpr:
		i, ok := o.index[e.Name]
		switch {
		case !ok || vm[i].kind == latTop: // a global, or uninitialized: unknown
			return lat{kind: latBottom}
		case vm[i].kind == latBottom:
			return lat{kind: latCopy, src: i}
		}
		return vm[i] // a constant, or a copy chain
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
func (o *optimizer) rewriteExpr(e syntax.Expr, vm []lat) syntax.Expr {
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
		if i, ok := o.index[e.Name]; ok && vm[i].kind == latCopy && vm[i].src != i {
			o.res.CopiesPropagated++
			v := &syntax.VarExpr{Name: o.vars[vm[i].src]}
			o.info.SetType(v, o.typeOf(e))
			return v
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
	folded := false
	for _, n := range o.nodes {
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
		// of the next walk.
		n.Kind = cfg.KindGoto
		n.Cond = nil
		n.Target = nil
		n.Succ = []*cfg.Node{target}
		o.res.BranchesResolved++
		folded = true
	}
	// Remove the pass-through Goto nodes folding created, mirroring the
	// translator's cleanup.
	collapsed := o.retarget(func(n *cfg.Node) *cfg.Node {
		seen := map[*cfg.Node]bool{}
		for n != nil && n.Kind == cfg.KindGoto && n.Target == nil && len(n.Succ) == 1 && !seen[n] {
			seen[n] = true
			n = n.Succ[0]
		}
		return n
	})
	if folded || collapsed {
		o.walk()
	}
}

// retarget replaces every edge s of the graph — successors, bundle
// targets, continuation bindings, the entry and ContMap — with to(s),
// in place and in node order, and reports whether any edge changed.
func (o *optimizer) retarget(to func(*cfg.Node) *cfg.Node) bool {
	changed := false
	re := func(s *cfg.Node) *cfg.Node {
		t := to(s)
		changed = changed || t != s
		return t
	}
	each := func(ns []*cfg.Node) {
		for i, s := range ns {
			ns[i] = re(s)
		}
	}
	for _, n := range o.g.AllNodes() {
		each(n.Succ)
		if b := n.Bundle; b != nil {
			each(b.Returns)
			each(b.Unwinds)
			each(b.Cuts)
		}
		for i := range n.Conts {
			n.Conts[i].Node = re(n.Conts[i].Node)
		}
	}
	o.g.Entry = re(o.g.Entry)
	for name, n := range o.g.ContMap {
		o.g.ContMap[name] = re(n)
	}
	return changed
}

// --- Dead code elimination ---

func (o *optimizer) deadCode() {
	for {
		lv := dataflow.LivenessOver(o.g, o.nodes, o.allEdges())
		var dead []*cfg.Node
		for _, n := range o.nodes {
			// Assignments to globals are always observable.
			if n.Kind == cfg.KindAssign && n.LHSMem == nil && o.isLocal(n.LHSVar) && !lv.LiveOut(n, n.LHSVar) {
				dead = append(dead, n)
			}
		}
		removed := o.bypass(dead)
		o.res.AssignsRemoved += removed
		if removed == 0 {
			return
		}
		o.walk()
	}
}

// bypass removes dead single-successor nodes in one sweep over the
// graph: every edge into one is redirected to the first live node down
// its chain of successors, where removing the nodes one at a time would
// leave it. A dead node whose chain loops has no such node and stays.
// bypass returns how many nodes it removed.
func (o *optimizer) bypass(dead []*cfg.Node) int {
	if len(dead) == 0 {
		return 0
	}
	isDead := make([]bool, o.g.NumIDs())
	for _, n := range dead {
		isDead[n.ID] = true
	}
	first := func(s *cfg.Node) *cfg.Node {
		t := s
		for hops := 0; t != nil && isDead[t.ID]; hops++ {
			if hops == len(dead) {
				return s // the chain loops
			}
			t = t.Succ[0]
		}
		return t
	}
	removed := 0
	for _, n := range dead {
		if first(n) != n {
			removed++
		}
	}
	if removed > 0 {
		o.retarget(first)
	}
	return removed
}

// --- Local common-subexpression elimination ---

func (o *optimizer) localCSE() {
	nodes := o.nodes
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
