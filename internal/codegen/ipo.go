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
	liveness *dataflow.Liveness
	ownS     int  // dense callee-saves prefix this proc allocates itself
	nSaved   int  // prefix the prologue actually saves
	leaf     bool // elide the frame entirely
	table    bool // branch-table return protocol despite TestAndBranch
}

type optFacts struct {
	procs map[string]*procFacts
}

// computeFacts derives the per-procedure optimization facts for src.
// Called from NewLayout when opts.Opt >= 1.
func computeFacts(src *cfg.Program, opts Options) *optFacts {
	facts := &optFacts{procs: map[string]*procFacts{}}

	// Classification first: own callee-saves prefix, frame residents,
	// and suspension points, per procedure.
	frameResident := map[string]bool{}
	hasCalls := map[string]bool{}
	for _, name := range src.Order {
		g := src.Graphs[name]
		var lv *dataflow.Liveness
		if opts.LivenessFor != nil {
			lv = opts.LivenessFor(name)
		}
		if lv == nil {
			lv = dataflow.ComputeLiveness(g)
		}
		_, frameVars, ownS := classifyHomes(g, lv, opts.DisableCalleeSaves)
		facts.procs[name] = &procFacts{liveness: lv, ownS: ownS}
		frameResident[name] = len(frameVars) > 0
		for _, n := range g.Nodes() {
			if n.Kind == cfg.KindCall {
				hasCalls[name] = true
			}
		}
	}

	// Precise callee-saves accounting over the barrier-free summaries.
	cons := dataflow.ConsSummarize(src)
	ownSOf := func(name string) int {
		if pf := facts.procs[name]; pf != nil {
			return pf.ownS
		}
		return 0
	}
	for _, name := range src.Order {
		g := src.Graphs[name]
		pf := facts.procs[name]
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
				if sum := cons.Procs[callee]; sum != nil && sum.Quiet() {
					continue
				}
				clobber = cons.MaxOver(callee, ownSOf)
			default:
				// Unknown callee: it can only be program code, so the
				// global maximum prefix bounds the damage.
				clobber = cons.MaxOver("", ownSOf)
			}
			if clobber > pf.nSaved {
				pf.nSaved = clobber
			}
		}
		if pf.nSaved > machine.NumS {
			pf.nSaved = machine.NumS
		}
	}

	// Leaf-frame elision: nothing can observe the frame.
	for _, name := range src.Order {
		g := src.Graphs[name]
		pf := facts.procs[name]
		pf.leaf = !hasCalls[name] && !frameResident[name] &&
			len(g.ContMap) == 0 && pf.nSaved == 0
	}

	if opts.Opt >= 2 && opts.TestAndBranch {
		computeTableProcs(src, facts)
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
func computeTableProcs(src *cfg.Program, facts *optFacts) {
	sums := dataflow.Summarize(src)
	table := map[string]bool{}
	for _, name := range src.Order {
		if sum := sums.Procs[name]; sum != nil && !sum.ArityUnknown {
			table[name] = true
		}
	}

	// numAlt[F] is the agreed alternate count of F's call sites; a
	// second site with a different count disqualifies F.
	numAlt := map[string]int{}
	sited := map[string]bool{}
	jumpEdges := map[string][]string{}
	for _, name := range src.Order {
		g := src.Graphs[name]
		for _, n := range g.Nodes() {
			// Any mention of a procedure's name outside direct-callee
			// position means its address escapes: a computed call could
			// reach it with arbitrary expectations.
			var calleeVar *syntax.VarExpr
			if (n.Kind == cfg.KindCall && !n.IsYield) || n.Kind == cfg.KindJump {
				calleeVar, _ = n.Callee.(*syntax.VarExpr)
			}
			cfg.WalkNodeExprs(n, func(e syntax.Expr) {
				v, ok := e.(*syntax.VarExpr)
				if !ok || v == calleeVar {
					return
				}
				if v.Ref == syntax.RefProc {
					table[v.Name] = false
				}
			})
			switch n.Kind {
			case cfg.KindCall:
				if n.IsYield {
					continue
				}
				callee, kind := dataflow.ResolveCallee(n.Callee)
				if kind != dataflow.CalleeProc {
					continue
				}
				alt := n.Bundle.AlternateCount()
				if sited[callee] && numAlt[callee] != alt {
					table[callee] = false
				}
				sited[callee] = true
				numAlt[callee] = alt
			case cfg.KindJump:
				callee, kind := dataflow.ResolveCallee(n.Callee)
				if kind == dataflow.CalleeProc {
					jumpEdges[name] = append(jumpEdges[name], callee)
				}
			}
		}
	}

	// Every exit arity must match the agreed site count.
	for name, ok := range table {
		if !ok {
			continue
		}
		want := numAlt[name] // 0 when unsited: only return <n/n> with n=0 allowed
		for n := range sums.Procs[name].RetArities {
			if n != want {
				table[name] = false
				break
			}
		}
	}

	// Tail-call protocol agreement, to a fixed point.
	for changed := true; changed; {
		changed = false
		for from, tos := range jumpEdges {
			for _, to := range tos {
				if table[from] != table[to] {
					table[from], table[to] = false, false
					changed = true
				}
			}
		}
	}

	for name, ok := range table {
		if pf := facts.procs[name]; pf != nil {
			pf.table = ok
		}
	}
}
