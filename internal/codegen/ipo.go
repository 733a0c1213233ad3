package codegen

import (
	"cmm/internal/cfg"
	"cmm/internal/dataflow"
	"cmm/internal/machine"
	"cmm/internal/syntax"
)

// This file computes the interprocedural facts behind codegen's -O
// optimizations. Everything here is decided once, serially, in NewLayout
// and is read-only afterwards, so the parallel EmitProc calls can
// consult it freely.
//
// Three facts per procedure:
//
//   - nSaved: how many callee-saves registers the prologue must save.
//     At -O0 a cut-target procedure saves the ENTIRE bank, because a cut
//     discards the frames between the raise point and the handler — and
//     with them whatever callee-saves values those frames had saved.
//     But the only values actually at risk are the registers some
//     discarded frame can have overwritten, and the allocator hands out
//     s-registers as a dense prefix s0, s1, …: every frame's saved set
//     is a prefix. A cut into this procedure's continuation can only
//     originate while the procedure is suspended at a call site whose
//     callee may cut or yield (a "disturbing" site, judged by the
//     barrier-free summaries), and the frames the cut discards all lie
//     in that callee's closure. So the prefix that must be saved is
//     max(own prefix, max over disturbing sites of the largest own
//     prefix in the callee's closure).
//
//   - leaf: the frame is never observed — no reachable call or yield
//     (so the procedure is never suspended and never walked), no
//     frame-resident variable, no continuation block, no saved
//     register. Such a frame is four dead instructions per invocation;
//     the prologue and epilogue are elided entirely (FrameSize 0).
//
//   - table: under -test-and-branch at -O2, a procedure whose return
//     arity is known and consistent with every (statically resolved,
//     non-escaping) call site can use the branch-table protocol of
//     Figure 4 even though the rest of the program uses test-and-branch:
//     its exits return straight through ra+j and its call sites lay out
//     jump slots. This converts the §2 "~17%" dispatch overhead into a
//     peephole win instead of a global configuration choice.
type procFacts struct {
	ownS   int  // dense callee-saves prefix this proc allocates itself
	nSaved int  // prefix the prologue actually saves
	leaf   bool // elide the frame entirely
	table  bool // branch-table return protocol despite TestAndBranch
}

// computeFacts derives the optimization facts of every procedure of
// src, by slot, from its liveness live. Called from NewLayout when
// opts.Opt >= 1.
func computeFacts(src *cfg.Program, opts Options, live []*dataflow.Liveness) []procFacts {
	facts := make([]procFacts, len(src.Procs))

	// Classification first: own callee-saves prefix, frame residents,
	// and suspension points, per procedure.
	frameResident := make([]bool, len(src.Procs))
	hasCalls := make([]bool, len(src.Procs))
	for i, g := range src.Procs {
		_, frameVars, ownS := classifyHomes(g, live[i], opts.DisableCalleeSaves)
		facts[i].ownS = ownS
		frameResident[i] = len(frameVars) > 0
		for _, n := range g.Nodes() {
			if n.Kind == cfg.KindCall {
				hasCalls[i] = true
			}
		}
	}

	// Precise callee-saves accounting over the barrier-free summaries.
	cg := dataflow.NewCallGraph(src)
	cons := cg.ConsSummarize()
	ownSOf := func(q int) int { return facts[q].ownS }
	for i, g := range src.Procs {
		pf := &facts[i]
		pf.nSaved = pf.ownS
		if !isCutTarget(g) || opts.DisableCalleeSaves {
			continue
		}
		// A cut into one of this procedure's continuations arrives while
		// the procedure is suspended at some call site; only a callee
		// that may cut or yield (or that the analysis lost track of) can
		// let that happen, and then the discarded frames are bounded by
		// the callee's closure. Yields in this procedure itself discard
		// nothing below it.
		for _, n := range g.Nodes() {
			if n.Kind != cfg.KindCall || n.IsYield {
				continue
			}
			callee, kind := dataflow.ResolveCallee(n.Callee)
			var clobber int
			switch kind {
			case dataflow.CalleeImport:
				continue // foreign code cannot cut, yield, or touch s-regs
			case dataflow.CalleeProc:
				if cons.Procs[callee.Slot].Quiet() {
					continue
				}
				clobber = cons.MaxOver(callee.Slot, ownSOf)
			default:
				// Unknown callee: it can only be program code, so the
				// global maximum prefix bounds the damage.
				clobber = cons.MaxAll(ownSOf)
			}
			pf.nSaved = max(pf.nSaved, clobber)
		}
		pf.nSaved = min(pf.nSaved, machine.NumS)
	}

	// Leaf-frame elision: nothing can observe the frame.
	for i, g := range src.Procs {
		pf := &facts[i]
		pf.leaf = !hasCalls[i] && !frameResident[i] && len(g.ContMap) == 0 && pf.nSaved == 0
	}

	if opts.Opt >= 2 && opts.TestAndBranch {
		computeTableProcs(src, cg.Summarize(), facts)
	}
	return facts
}

// computeTableProcs marks the procedures that can use the branch-table
// return protocol under the test-and-branch configuration: the name
// never escapes as data (every reference is the direct callee of a call
// or tail call), every exit arity is known, and every resolved call
// site has the same alternate count matching that arity. Tail-call
// partners must agree on the protocol (the jumped-to procedure returns
// on the jumper's behalf), so mismatched jump edges clear both ends.
func computeTableProcs(src *cfg.Program, sums []dataflow.Summary, facts []procFacts) {
	table := make([]bool, len(src.Procs))
	for i := range table {
		table[i] = !sums[i].ArityUnknown
	}

	// numAlt[F] is the agreed alternate count of F's call sites; a
	// second site with a different count disqualifies F.
	numAlt := make([]int, len(src.Procs))
	sited := make([]bool, len(src.Procs))
	var jumpEdges [][2]int // (jumper, jumped-to)
	for i, g := range src.Procs {
		for _, n := range g.Nodes() {
			// Any mention of a procedure's name outside direct-callee
			// position means its address escapes: a computed call could
			// reach it with arbitrary expectations.
			var calleeVar *syntax.VarExpr
			if (n.Kind == cfg.KindCall && !n.IsYield) || n.Kind == cfg.KindJump {
				calleeVar, _ = n.Callee.(*syntax.VarExpr)
			}
			cfg.WalkNodeExprs(n, func(e syntax.Expr) {
				if v, ok := e.(*syntax.VarExpr); ok && v != calleeVar && v.Ref == syntax.RefProc {
					table[v.Slot] = false
				}
			})
			callee, kind := dataflow.ResolveCallee(n.Callee)
			if kind != dataflow.CalleeProc {
				continue
			}
			switch {
			case n.Kind == cfg.KindCall && !n.IsYield:
				c, alt := callee.Slot, n.Bundle.AlternateCount()
				if sited[c] && numAlt[c] != alt {
					table[c] = false
				}
				sited[c] = true
				numAlt[c] = alt
			case n.Kind == cfg.KindJump:
				jumpEdges = append(jumpEdges, [2]int{i, callee.Slot})
			}
		}
	}

	// Every exit arity must match the agreed site count (0 when
	// unsited: only return <n/n> with n=0 allowed).
	for i, ok := range table {
		for n := range sums[i].RetArities {
			if ok && n != numAlt[i] {
				table[i] = false
			}
		}
	}

	// Tail-call protocol agreement, to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, e := range jumpEdges {
			if table[e[0]] != table[e[1]] {
				table[e[0]], table[e[1]] = false, false
				changed = true
			}
		}
	}

	for i, ok := range table {
		facts[i].table = ok
	}
}
