package dataflow

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
// ConsSummarize therefore closes the call graph's seed facts over every
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
// reachability closure of a program, by procedure slot.
type ConsSummaries struct {
	Procs []ConsSummary
	// Reach[p] is the set of procedures reachable from p over static
	// call and jump edges, including p itself. Imports are not listed
	// (foreign code cannot touch the simulated register file).
	Reach []Bitset
}

// Bitset is a set of procedure slots: slot q is bit q%64 of word q/64.
type Bitset []uint64

// Has reports whether slot q is in the set.
func (b Bitset) Has(q int) bool { return b[q/64]&(1<<(q%64)) != 0 }

// MaxOver folds f over the reachability closure of procedure p,
// returning the maximum. When the closure is incomplete (an unresolved
// target), it is MaxAll: an unresolved transfer in this simulated
// machine can only land in program code.
func (s *ConsSummaries) MaxOver(p int, f func(int) int) int {
	if s.Procs[p].Incomplete {
		return s.MaxAll(f)
	}
	m := 0
	for q := range s.Procs {
		if s.Reach[p].Has(q) {
			m = max(m, f(q))
		}
	}
	return m
}

// MaxAll folds f over every procedure of the program, returning the
// maximum.
func (s *ConsSummaries) MaxAll(f func(int) int) int {
	m := 0
	for q := range s.Procs {
		m = max(m, f(q))
	}
	return m
}

// ConsSummarize computes barrier-free summaries for every procedure: the
// seed facts of everything its closure reaches.
func (cg *CallGraph) ConsSummarize() *ConsSummaries {
	n, w := len(cg.procs), (len(cg.procs)+63)/64
	s := &ConsSummaries{Procs: make([]ConsSummary, n), Reach: make([]Bitset, n)}
	words := make(Bitset, n*w)
	var stack []int
	for p := range cg.procs {
		set := words[p*w : (p+1)*w]
		s.Reach[p] = set
		visit := func(q int) {
			if !set.Has(q) {
				set[q/64] |= 1 << (q % 64)
				stack = append(stack, q)
			}
		}
		visit(p)
		sum := &s.Procs[p]
		for len(stack) > 0 {
			q := &cg.procs[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			sum.MayCut = sum.MayCut || q.seed.MayCut
			sum.MayYield = sum.MayYield || q.seed.MayYield
			sum.Incomplete = sum.Incomplete || q.seed.Incomplete
			for _, e := range q.calls {
				visit(e.callee)
			}
			for _, r := range q.jumps {
				visit(r)
			}
		}
	}
	return s
}
