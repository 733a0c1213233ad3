package opt

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"cmm/internal/cfg"
	"cmm/internal/dataflow"
	"cmm/internal/paper"
	"cmm/internal/progen"
	"cmm/internal/syntax"
)

// The reference below is the map-based propagation solver the dense one
// replaced, kept as the oracle: a valueMap per node keyed by variable
// name (absent means ⊤), a transfer that copies the whole map, and a
// fixed-point loop that recomputes transfer(p, in[p]) for every
// predecessor of every node on every round. refEvalLat and
// refRewriteExpr mirror evalLat and rewriteExpr over the maps, and
// refBypass is the one-node-at-a-time bypass the batched one replaced.

type refLat struct {
	kind latKind
	val  uint64
	src  string
}

type refMap map[string]refLat

func (vm refMap) get(v string) refLat {
	if l, ok := vm[v]; ok {
		return l
	}
	return refLat{kind: latTop}
}

func refMeet(a, b refLat) refLat {
	if a.kind == latTop {
		return b
	}
	if b.kind == latTop {
		return a
	}
	if a == b {
		return a
	}
	return refLat{kind: latBottom}
}

func sameRefMap(a, b refMap) bool {
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

// refSolve is the old fixed point over o.nodes.
func refSolve(o *optimizer) map[*cfg.Node]refMap {
	nodes := o.nodes
	in := map[*cfg.Node]refMap{}
	preds := map[*cfg.Node][]*cfg.Node{}
	for _, n := range nodes {
		n.EachSucc(o.allEdges(), func(s *cfg.Node) { preds[s] = append(preds[s], n) })
	}
	transfer := func(n *cfg.Node, vm refMap) refMap {
		out := refMap{}
		for k, v := range vm {
			out[k] = v
		}
		kill := func(v string) {
			out[v] = refLat{kind: latBottom}
			for k, l := range out {
				if l.kind == latCopy && l.src == v {
					out[k] = refLat{kind: latBottom}
				}
			}
		}
		switch n.Kind {
		case cfg.KindEntry:
			for _, cb := range n.Conts {
				out[cb.Name] = refLat{kind: latBottom}
			}
		case cfg.KindCopyIn:
			for _, v := range n.Vars {
				kill(v.Name)
			}
		case cfg.KindAssign:
			if n.LHSMem == nil {
				l := refEvalLat(o, n.RHS, vm)
				kill(n.LHSVar.Name)
				if refIsLocal(o, n.LHSVar.Name) {
					if !(l.kind == latCopy && l.src == n.LHSVar.Name) {
						out[n.LHSVar.Name] = l
					}
				}
			}
		}
		return out
	}
	changed := true
	for changed {
		changed = false
		for _, n := range nodes {
			merged := refMap{}
			for _, p := range preds[n] {
				for v, l := range transfer(p, in[p]) {
					merged[v] = refMeet(merged.get(v), l)
				}
			}
			if !sameRefMap(merged, in[n]) {
				in[n] = merged
				changed = true
			}
		}
	}
	return in
}

// refPropagate is the old propagate: refSolve, then rewrite every use.
func refPropagate(o *optimizer) {
	in := refSolve(o)
	for _, n := range o.nodes {
		vm := in[n]
		if vm == nil {
			vm = refMap{}
		}
		rewrite := func(e syntax.Expr) syntax.Expr { return refRewriteExpr(o, e, vm) }
		for i, e := range n.Exprs {
			n.Exprs[i] = rewrite(e)
		}
		if n.RHS != nil {
			n.RHS = rewrite(n.RHS)
		}
		if n.LHSMem != nil {
			n.LHSMem = syntax.NewMem(n.LHSMem.Ty, rewrite(n.LHSMem.Addr))
		}
		if n.Cond != nil {
			n.Cond = rewrite(n.Cond)
		}
		if n.Callee != nil {
			n.Callee = rewrite(n.Callee)
		}
	}
}

// refIsLocal and refSlot find a local by name, as the replaced solver's
// name index did.
func refIsLocal(o *optimizer, v string) bool { return refSlot(o, v) >= 0 }

func refSlot(o *optimizer, v string) int {
	for i, l := range o.g.Locals {
		if l.Name == v {
			return i
		}
	}
	return -1
}

func refEvalLat(o *optimizer, e syntax.Expr, vm refMap) refLat {
	bottom := refLat{kind: latBottom}
	switch e := e.(type) {
	case *syntax.IntLit:
		return refLat{kind: latConst, val: e.Val}
	case *syntax.VarExpr:
		if !refIsLocal(o, e.Name) {
			return bottom
		}
		l := vm.get(e.Name)
		if l.kind == latTop {
			return bottom
		}
		if l.kind == latConst || l.kind == latBottom {
			if l.kind == latConst {
				return l
			}
			return refLat{kind: latCopy, src: e.Name}
		}
		return l
	case *syntax.UnExpr:
		x := refEvalLat(o, e.X, vm)
		if x.kind != latConst || refTypeOf(e).Kind == syntax.FloatType {
			return bottom
		}
		w := refTypeOf(e).Width
		switch e.Op {
		case syntax.MINUS:
			return refLat{kind: latConst, val: (-x.val) & mask(w)}
		case syntax.TILDE:
			return refLat{kind: latConst, val: (^x.val) & mask(w)}
		case syntax.NOT:
			if x.val == 0 {
				return refLat{kind: latConst, val: 1}
			}
			return refLat{kind: latConst, val: 0}
		}
		return bottom
	case *syntax.BinExpr:
		x := refEvalLat(o, e.X, vm)
		y := refEvalLat(o, e.Y, vm)
		if x.kind != latConst || y.kind != latConst {
			return bottom
		}
		xt := refTypeOf(e.X)
		if xt.Kind == syntax.FloatType {
			return bottom
		}
		w := xt.Width
		if w == 0 {
			w = 64
		}
		v, ok := cfg.EvalWordOp(e.Op, x.val, y.val, w)
		if !ok {
			return bottom
		}
		return refLat{kind: latConst, val: v}
	case *syntax.PrimExpr:
		args := make([]uint64, len(e.Args))
		for i, a := range e.Args {
			l := refEvalLat(o, a, vm)
			if l.kind != latConst {
				return bottom
			}
			args[i] = l.val
		}
		w := syntax.Word.Width
		if len(e.Args) > 0 {
			w = refTypeOf(e.Args[0]).Width
		}
		v, ok := cfg.EvalPrim(e.Name, args, w)
		if !ok {
			return bottom
		}
		return refLat{kind: latConst, val: v}
	}
	return bottom
}

// refTypeOf is the replaced type lookup: a missing type reads as Word.
func refTypeOf(e syntax.Expr) syntax.Type {
	if t := e.Type(); t != (syntax.Type{}) {
		return t
	}
	return syntax.Word
}

func refRewriteExpr(o *optimizer, e syntax.Expr, vm refMap) syntax.Expr {
	if e == nil {
		return nil
	}
	if l := refEvalLat(o, e, vm); l.kind == latConst {
		if _, already := e.(*syntax.IntLit); !already {
			t := refTypeOf(e)
			if t.Kind == syntax.BitsType {
				o.res.ConstantsFolded++
				return syntax.NewInt(l.val, t)
			}
		}
		return e
	}
	switch e := e.(type) {
	case *syntax.VarExpr:
		if refIsLocal(o, e.Name) {
			if l := vm.get(e.Name); l.kind == latCopy && l.src != e.Name && refIsLocal(o, l.src) {
				o.res.CopiesPropagated++
				return syntax.NewVar(l.src, syntax.RefLocal, refSlot(o, l.src), refTypeOf(e))
			}
		}
		return e
	case *syntax.MemExpr:
		return syntax.NewMem(e.Ty, refRewriteExpr(o, e.Addr, vm))
	case *syntax.UnExpr:
		return syntax.NewUn(e.Op, refRewriteExpr(o, e.X, vm), refTypeOf(e))
	case *syntax.BinExpr:
		return syntax.NewBin(e.Op, refRewriteExpr(o, e.X, vm), refRewriteExpr(o, e.Y, vm), refTypeOf(e))
	case *syntax.PrimExpr:
		var args []syntax.Expr
		for _, a := range e.Args {
			args = append(args, refRewriteExpr(o, a, vm))
		}
		return syntax.NewPrim(e.Name, args, refTypeOf(e))
	}
	return e
}

// refDeadCode is the old dead-code pass: one bypass, and one sweep over
// every node ever created, per dead assignment.
func refDeadCode(o *optimizer) {
	for {
		nodes := o.g.Reachable(o.allEdges())
		lv := dataflow.LivenessOver(o.g, nodes, o.allEdges())
		removed := 0
		for _, n := range nodes {
			if n.Kind == cfg.KindAssign && n.LHSMem == nil && refIsLocal(o, n.LHSVar.Name) && !lv.LiveOut(n, n.LHSVar.Slot) {
				refBypass(o.g, n)
				removed++
			}
		}
		o.res.AssignsRemoved += removed
		if removed == 0 {
			o.walk()
			return
		}
	}
}

func refBypass(g *cfg.Graph, n *cfg.Node) {
	succ := n.Succ[0]
	redirect := func(p *cfg.Node) *cfg.Node {
		if p == n {
			return succ
		}
		return p
	}
	for _, x := range g.AllNodes() {
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
	if g.Entry == n {
		g.Entry = succ
	}
	for name, x := range g.ContMap {
		if x == n {
			g.ContMap[name] = succ
		}
	}
}

// renderDense renders the in vector of every node in o.nodes, one line
// per node, ⊤ entries omitted.
func renderDense(o *optimizer, in []lat) []string {
	nv := len(o.g.Locals)
	name := func(s int) string { return o.g.Locals[s].Name }
	lines := make([]string, len(o.nodes))
	for i, n := range o.nodes {
		var parts []string
		for k, l := range in[i*nv : (i+1)*nv] {
			switch l.kind {
			case latConst:
				parts = append(parts, fmt.Sprintf("%s=%d", name(k), l.val))
			case latCopy:
				parts = append(parts, fmt.Sprintf("%s=copy(%s)", name(k), name(int(l.src))))
			case latBottom:
				parts = append(parts, name(k)+"=⊥")
			}
		}
		lines[i] = fmt.Sprintf("n%d %s: %s", n.ID, n.Kind, strings.Join(parts, " "))
	}
	return lines
}

// renderRef renders the reference maps the same way. The maps also
// record ⊥ for globals a node assigns, which no read consults and the
// dense vectors leave out.
func renderRef(o *optimizer, in map[*cfg.Node]refMap) []string {
	lines := make([]string, len(o.nodes))
	for i, n := range o.nodes {
		var names []string
		for v := range in[n] {
			if refIsLocal(o, v) {
				names = append(names, v)
			}
		}
		sort.Strings(names)
		var parts []string
		for _, v := range names {
			switch l := in[n][v]; l.kind {
			case latConst:
				parts = append(parts, fmt.Sprintf("%s=%d", v, l.val))
			case latCopy:
				parts = append(parts, fmt.Sprintf("%s=copy(%s)", v, l.src))
			case latBottom:
				parts = append(parts, v+"=⊥")
			}
		}
		lines[i] = fmt.Sprintf("n%d %s: %s", n.ID, n.Kind, strings.Join(parts, " "))
	}
	return lines
}

// edges renders every edge of every node ever created, by node ID, so
// that two builds of one program can be compared after rewriting.
func edges(g *cfg.Graph) string {
	var sb strings.Builder
	id := func(n *cfg.Node) string {
		if n == nil {
			return "nil"
		}
		return fmt.Sprint(n.ID)
	}
	for _, n := range g.AllNodes() {
		fmt.Fprintf(&sb, "%d:", n.ID)
		n.EachSucc(true, func(s *cfg.Node) { sb.WriteString(" " + id(s)) })
		for _, cb := range n.Conts {
			sb.WriteString(" " + cb.Name + "=" + id(cb.Node))
		}
		sb.WriteString("\n")
	}
	names := make([]string, 0, len(g.ContMap))
	for name := range g.ContMap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s=%s ", name, id(g.ContMap[name]))
	}
	fmt.Fprintf(&sb, "entry=%s\n", id(g.Entry))
	return sb.String()
}

// propagateCorpus is every program the oracle test runs: the
// optimizer's cycle workloads, Figure 1, and generated programs with
// and without exceptions. The wide ones nest loops four deep, deep
// enough that a solver which forgot to revisit a loop head after its
// back edge changed gives a different lattice.
func propagateCorpus() map[string]string {
	corpus := map[string]string{"figure1": paper.Figure1}
	for _, w := range paper.CycleWorkloads {
		corpus["workload "+w.Name] = w.Src
	}
	for seed := int64(0); seed < 60; seed++ {
		for _, exc := range []bool{false, true} {
			corpus[fmt.Sprintf("progen %d exc=%v", seed, exc)] = progen.Generate(seed, progen.Config{Exceptions: exc})
			corpus[fmt.Sprintf("progen %d exc=%v deep", seed, exc)] = progen.Generate(seed, progen.Config{Exceptions: exc, Procs: 5, MaxDepth: 3})
			corpus[fmt.Sprintf("progen %d exc=%v wide", seed, exc)] = progen.Generate(seed, progen.Config{Exceptions: exc, MaxStmts: 8, MaxDepth: 4})
		}
	}
	return corpus
}

// compareWithReference optimizes every procedure of src three times:
// with Optimize, with its passes driven round by round, and with the
// reference propagation and dead-code passes in their place. In every
// round the dense solver must compute exactly the reference lattice on
// entry to every node, and all three must end with the same Result,
// the same graph and the same edges, unreachable nodes included.
func compareWithReference(t *testing.T, where, src string, opts Options) {
	t.Helper()
	dense, ref, plain := build(t, src), build(t, src), build(t, src)
	for _, pname := range dense.Order {
		where := fmt.Sprintf("%s/%s noexc=%v", where, pname, opts.WithoutExceptionEdges)
		want := Optimize(plain.Graph(pname), opts)

		gd, gr := dense.Graph(pname), ref.Graph(pname)
		rd, rr := &Result{}, &Result{}
		od, or := newOptimizer(gd, opts, rd), newOptimizer(gr, opts, rr)
		for round := 0; round < 10; round++ {
			rd.Rounds, rr.Rounds = round+1, round+1
			before := rd.total()
			got, exp := renderDense(od, od.solve()), renderRef(or, refSolve(or))
			if len(got) != len(exp) {
				t.Fatalf("%s round %d: %d nodes, reference %d", where, round, len(got), len(exp))
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Errorf("%s round %d: in %s\n  reference %s", where, round, got[i], exp[i])
				}
			}
			od.propagate()
			refPropagate(or)
			od.foldBranches()
			or.foldBranches()
			od.deadCode()
			refDeadCode(or)
			od.localCSE()
			or.localCSE()
			if rd.total() == before {
				break
			}
		}
		if *rd != *rr || *rd != *want {
			t.Errorf("%s: dense %s, reference %s, Optimize %s", where, rd, rr, want)
		}
		if gd.String() != gr.String() || gd.String() != plain.Graph(pname).String() {
			t.Errorf("%s: graphs differ\ndense:\n%s\nreference:\n%s\nOptimize:\n%s", where, gd, gr, plain.Graph(pname))
		}
		if edges(gd) != edges(gr) || edges(gd) != edges(plain.Graph(pname)) {
			t.Errorf("%s: edges differ\ndense:\n%s\nreference:\n%s", where, edges(gd), edges(gr))
		}
	}
}

// TestPropagateMatchesReference runs compareWithReference over the
// corpus in both edge views.
func TestPropagateMatchesReference(t *testing.T) {
	for name, src := range propagateCorpus() {
		for _, noExc := range []bool{false, true} {
			compareWithReference(t, name, src, Options{WithoutExceptionEdges: noExc})
		}
	}
}

// deadChain has a chain of assignments, a := …; b := a; c := b, that
// all die, entered both from continuation k's CopyIn and, through label
// m, from the body; deadAtOnce has the same shape, but its three
// assignments are dead in the same dead-code iteration.
const deadChain = `
f(bits32 x) {
    bits32 a, b, c;
    x = g(x, k) also cuts to k also aborts;
    if x > 5 { goto m; }
    return (x);
continuation k(x):
    a = x + 1;
m:
    b = a;
    c = b;
    return (x);
}
g(bits32 y, bits32 kv) {
    cut to kv(y) also aborts;
}
`

const deadAtOnce = `
f(bits32 x) {
    bits32 a, b, c;
    x = g(x, k) also cuts to k also aborts;
    if x > 5 { goto m; }
    return (x);
continuation k(x):
    a = x + 1;
m:
    b = x + 2;
    c = x * 3;
    return (x);
}
g(bits32 y, bits32 kv) {
    cut to kv(y) also aborts;
}
`

// TestBypassDeadChain: removing a chain of dead assignments in one sweep
// leaves the graph, every edge and the counts exactly as removing them
// one at a time did.
func TestBypassDeadChain(t *testing.T) {
	for _, src := range []string{deadChain, deadAtOnce} {
		compareWithReference(t, "dead chain", src, Options{})
	}
	dense, ref := build(t, deadAtOnce), build(t, deadAtOnce)
	gd, gr := dense.Graph("f"), ref.Graph("f")
	od := newOptimizer(gd, Options{}, &Result{})
	or := newOptimizer(gr, Options{}, &Result{})
	od.deadCode()
	refDeadCode(or)
	if od.res.AssignsRemoved != 3 || or.res.AssignsRemoved != 3 {
		t.Errorf("removed %d assignments, reference %d, want 3\n%s", od.res.AssignsRemoved, or.res.AssignsRemoved, gd)
	}
	if gd.String() != gr.String() || edges(gd) != edges(gr) {
		t.Errorf("graphs differ\ndense:\n%s%s\nreference:\n%s%s", gd, edges(gd), gr, edges(gr))
	}
	if countAssigns(gd) != 0 {
		t.Errorf("assignments left:\n%s", gd)
	}
}

// TestDeadLoopTerminates: a dead assignment that is its own successor
// has no live node to bypass to, so dead-code removal leaves it rather
// than redirecting its edges forever.
func TestDeadLoopTerminates(t *testing.T) {
	p := build(t, `
f(bits32 x) {
    bits32 y;
L:
    y = x;
    goto L;
}
`)
	done := make(chan *Result, 1)
	go func() { done <- Optimize(p.Graph("f"), Options{}) }()
	select {
	case res := <-done:
		if res.AssignsRemoved != 0 || countAssigns(p.Graph("f")) != 1 {
			t.Errorf("%s\n%s", res, p.Graph("f"))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Optimize does not return on a loop of one dead assignment")
	}
}

// exprPointers lists every expression a node of g holds, node by node.
func exprPointers(g *cfg.Graph) []any {
	var ps []any
	for _, n := range g.Nodes() {
		for _, e := range n.Exprs {
			ps = append(ps, e)
		}
		ps = append(ps, n.LHSMem, n.RHS, n.Cond, n.Callee)
	}
	return ps
}

// TestReoptimizeKeepsExpressions: optimizing an already-optimized
// procedure again rewrites nothing, so it must keep every expression a
// node holds, pointer for pointer, instead of rebuilding (and
// re-recording the type of) each one on every round.
func TestReoptimizeKeepsExpressions(t *testing.T) {
	checked := 0
	for name, src := range propagateCorpus() {
		p := build(t, src)
		for _, pname := range p.Order {
			g := p.Graph(pname)
			Optimize(g, Options{})
			before := exprPointers(g)
			if res := Optimize(g, Options{}); res.total() != 0 {
				continue // the first run stopped at MaxRounds
			}
			checked++
			after := exprPointers(g)
			if len(after) != len(before) {
				t.Fatalf("%s/%s: %d expressions before, %d after", name, pname, len(before), len(after))
			}
			for i := range before {
				if before[i] != after[i] {
					t.Errorf("%s/%s: expression %d rebuilt by a round that changed nothing", name, pname, i)
					break
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no procedure reached a fixed point")
	}
}
