package dataflow

import (
	"cmm/internal/cfg"
)

// This file computes the conservative (barrier-free) variant of the
// interprocedural summaries in summary.go. The annotation-based
// summaries of Summarize treat "also cuts to"/"also unwinds to" without
// "also aborts" as barriers: they assume a cut or a dispatcher stops at
// the first catching site, which is exactly the §4.4 contract — for
// WELL-FORMED programs. The optimizer cannot afford that assumption:
// generated code performs no dynamic annotation validation (a cut is a
// two-word load and a jump, §4.2), and a run-time system reached through
// yield may SetCutToCont past any number of frames without consulting
// their annotations. So the facts that drive code-shrinking decisions —
// which callee-saves registers a discarded frame may have clobbered,
// whether a frame can ever be observed by a walk — must hold on every
// execution the MACHINE permits, not just the annotated ones.
//
// ConsSummarize therefore propagates MayCut and MayYield through every
// static call and jump edge with no barriers, and additionally exposes
// the call/jump reachability closure so clients can fold per-procedure
// quantities (such as callee-saves usage) over everything a call might
// execute.

// ConsSummary is the barrier-free behaviour of one procedure, closed
// over its static call and jump edges.
type ConsSummary struct {
	// MayCut: some reachable execution (of this procedure or anything it
	// transitively calls or jumps to) contains a cut whose target is not
	// a continuation of the activation executing it.
	MayCut bool
	// MayYield: some reachable execution enters the front-end run-time
	// system, which may unwind, abort, or cut with no further static
	// evidence.
	MayYield bool
	// Incomplete: a call or jump target somewhere in the closure could
	// not be resolved, so the negations of MayCut/MayYield are not
	// evidence.
	Incomplete bool
}

// Quiet reports that no execution of the procedure can disturb frames
// above it: it provably neither cuts nor yields, and its closure is
// fully resolved. Quiet callees are the enabling fact for every
// frame-shrinking optimization.
func (s *ConsSummary) Quiet() bool {
	return !s.MayCut && !s.MayYield && !s.Incomplete
}

// ConsSummaries holds the barrier-free summaries and the call/jump
// reachability closure of a program.
type ConsSummaries struct {
	Procs map[string]*ConsSummary
	// Reach[p] is the set of defined procedures reachable from p over
	// static call and jump edges, including p itself. Imports are not
	// listed (foreign code cannot touch the simulated register file).
	Reach map[string]map[string]bool
}

// MaxOver folds f over the reachability closure of proc, returning the
// maximum. When the closure is incomplete (an unresolved target), the
// fold includes every procedure of the program: an unresolved transfer
// in this simulated machine can only land in program code.
func (s *ConsSummaries) MaxOver(proc string, f func(string) int) int {
	set := s.Reach[proc]
	if sum := s.Procs[proc]; sum != nil && sum.Incomplete {
		set = nil // widen to the whole program below
	}
	max := 0
	if set == nil {
		for name := range s.Procs {
			if v := f(name); v > max {
				max = v
			}
		}
		return max
	}
	for name := range set {
		if v := f(name); v > max {
			max = v
		}
	}
	return max
}

// ConsSummarize computes barrier-free summaries for every procedure.
func ConsSummarize(prog *cfg.Program) *ConsSummaries {
	s := &ConsSummaries{
		Procs: map[string]*ConsSummary{},
		Reach: map[string]map[string]bool{},
	}
	edges := map[string][]string{} // static call+jump targets, deduplicated
	for _, name := range prog.Order {
		g := prog.Graphs[name]
		sum := &ConsSummary{}
		s.Procs[name] = sum
		seen := map[string]bool{}
		addEdge := func(callee string) {
			if !seen[callee] {
				seen[callee] = true
				edges[name] = append(edges[name], callee)
			}
		}
		for _, n := range g.Nodes() {
			switch n.Kind {
			case cfg.KindCutTo:
				if _, kind := ResolveCallee(n.Callee); kind != CalleeCont {
					sum.MayCut = true
				}
			case cfg.KindCall, cfg.KindJump:
				if n.IsYield {
					sum.MayYield = true
					continue
				}
				callee, kind := ResolveCallee(n.Callee)
				switch kind {
				case CalleeProc:
					addEdge(callee)
				case CalleeImport:
					// Foreign code cannot cut, yield, or touch the
					// simulated register file.
				default:
					sum.Incomplete = true
				}
			}
		}
	}

	// Reachability closure (includes the procedure itself).
	for _, name := range prog.Order {
		set := map[string]bool{name: true}
		stack := []string{name}
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, q := range edges[p] {
				if !set[q] {
					set[q] = true
					stack = append(stack, q)
				}
			}
		}
		s.Reach[name] = set
	}

	// Fold the seed facts over the closure: no barriers.
	for _, name := range prog.Order {
		sum := s.Procs[name]
		for q := range s.Reach[name] {
			qs := s.Procs[q]
			sum.MayCut = sum.MayCut || qs.MayCut
			sum.MayYield = sum.MayYield || qs.MayYield
			sum.Incomplete = sum.Incomplete || qs.Incomplete
		}
	}
	return s
}
