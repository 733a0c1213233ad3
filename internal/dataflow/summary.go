package dataflow

import (
	"maps"

	"cmm/internal/cfg"
	"cmm/internal/syntax"
)

// This file computes interprocedural control-flow summaries: for every
// procedure, whether it may cut to a continuation of an older activation,
// whether it may enter the front-end run-time system (yield), which
// return arities its exits cite, and whether any execution returns
// normally. The summaries are the "computed may-raise" side of the §4.4
// contract — call-site annotations must over-approximate them — and are
// consumed by the verifier (internal/verify). Like everything else in
// this package they are a fixpoint over declared flow edges; the
// interprocedural edges are static call and jump targets.

// CalleeKind classifies how a call, jump, or cut target resolved.
type CalleeKind int

// The ways a control-transfer target can resolve.
const (
	// CalleeUnknown: the target is a computed expression (or a variable
	// holding a code pointer); no static summary applies.
	CalleeUnknown CalleeKind = iota
	// CalleeProc: a procedure defined in this program.
	CalleeProc
	// CalleeImport: an imported (foreign) procedure. Foreign code cannot
	// cut or yield and always returns normally with arity 0.
	CalleeImport
	// CalleeCont: a continuation of the enclosing procedure (the only
	// kind a continuation name can resolve to, §4.1).
	CalleeCont
)

// ResolveCallee resolves the target expression of a Call, Jump, or CutTo
// node to the reference it names and its kind. A procedure's Slot
// indexes cfg.Program.Procs, an import's cfg.Program.Foreign and a
// continuation's its Entry's Conts. Targets that are not simple names —
// or names bound to mutable variables — resolve to (nil,
// CalleeUnknown).
func ResolveCallee(target syntax.Expr) (*syntax.VarExpr, CalleeKind) {
	if v, ok := target.(*syntax.VarExpr); ok {
		switch v.Ref {
		case syntax.RefProc:
			return v, CalleeProc
		case syntax.RefImport:
			return v, CalleeImport
		case syntax.RefCont:
			return v, CalleeCont
		}
	}
	return nil, CalleeUnknown
}

// Summary is the interprocedural control-flow behaviour of one
// procedure, closed over its static call and jump edges.
type Summary struct {
	// MayCut: some execution may perform a cut whose target is not a
	// continuation of the activation executing the cut — i.e. the cut can
	// land in (or pass through) an older activation, so every call site
	// that can reach it needs "also cuts to" or "also aborts" (§4.4).
	MayCut bool
	// MayYield: some execution may call the run-time procedure yield;
	// the dispatcher it enters may unwind or abort through any call site
	// on the stack (§3.3, Table 1).
	MayYield bool
	// RetArities collects the n of every reachable "return <m/n>" exit,
	// including exits reached through tail calls to other procedures. A
	// call site whose alternate-return count is not in this set traps on
	// that return path.
	RetArities map[int]bool
	// ArityUnknown: some tail call's target could not be resolved, so
	// RetArities may be incomplete.
	ArityUnknown bool
	// ReturnsNormally: some execution can reach a normal return
	// (return <n/n>), directly or through tail calls. When false, code at
	// a call site's normal return continuation is unreachable.
	ReturnsNormally bool
	// Incomplete: the procedure (transitively) transfers control through
	// a target the analysis could not resolve; MayCut and MayYield remain
	// definite evidence, but their negations are not.
	Incomplete bool
}

// CallGraph is the static call graph of a program, by procedure slot:
// every procedure's statically resolved call and jump targets, and the
// facts its own nodes establish before any propagation. It is built once
// and read by both the annotation-respecting summaries (Summarize) and
// their barrier-free closure (ConsSummarize).
type CallGraph struct {
	procs []procEdges
}

type procEdges struct {
	seed  Summary    // the procedure's own facts
	calls []callEdge // call edges, with their barriers
	jumps []int      // tail-call targets; the activation is replaced, so no barriers
}

// callEdge is one static call edge with the annotation facts that govern
// propagation through it. A site annotated "also cuts to" but NOT "also
// aborts" asserts that every cut reaching it lands in this activation —
// a cut passing through would trap dynamically ("cut past a call site
// without also aborts") — so it is a barrier for MayCut. A site
// annotated "also unwinds to" but not "also aborts" is the same barrier
// for MayYield: a dispatcher discarding that frame would trap.
type callEdge struct {
	callee       int
	catchesCut   bool // also cuts to … without also aborts
	catchesYield bool // also unwinds to … without also aborts
}

// NewCallGraph builds the static call graph of prog. Only reachable
// nodes (Graph.Nodes) contribute: the implicit fall-off return
// synthesized by translation is ignored when no execution reaches it.
func NewCallGraph(prog *cfg.Program) *CallGraph {
	cg := &CallGraph{procs: make([]procEdges, len(prog.Procs))}
	for i, g := range prog.Procs {
		p := &cg.procs[i]
		sum := &p.seed
		sum.RetArities = map[int]bool{}
		for _, n := range g.Nodes() {
			switch n.Kind {
			case cfg.KindExit:
				sum.RetArities[n.RetArity] = true
				if n.RetIndex == n.RetArity {
					sum.ReturnsNormally = true
				}
			case cfg.KindCutTo:
				if _, kind := ResolveCallee(n.Callee); kind != CalleeCont {
					sum.MayCut = true
				}
			case cfg.KindCall:
				if n.IsYield {
					sum.MayYield = true
					continue
				}
				callee, kind := ResolveCallee(n.Callee)
				switch kind {
				case CalleeProc:
					p.calls = append(p.calls, callEdge{
						callee:       callee.Slot,
						catchesCut:   len(n.Bundle.Cuts) > 0 && !n.Bundle.Abort,
						catchesYield: len(n.Bundle.Unwinds) > 0 && !n.Bundle.Abort,
					})
				case CalleeImport:
					// Foreign code cannot cut or yield.
				default:
					sum.Incomplete = true
				}
			case cfg.KindJump:
				callee, kind := ResolveCallee(n.Callee)
				switch kind {
				case CalleeProc:
					p.jumps = append(p.jumps, callee.Slot)
				case CalleeImport:
					// A jump to foreign code returns normally with
					// arity 0 on the jumper's behalf.
					sum.RetArities[0] = true
					sum.ReturnsNormally = true
				default:
					// An unresolved tail call may return normally with
					// any arity.
					sum.ArityUnknown = true
					sum.Incomplete = true
					sum.ReturnsNormally = true
				}
			}
		}
	}
	return cg
}

// Summarize computes control-flow summaries for every procedure, by
// slot, as a fixpoint over the call graph. MayCut, MayYield, and
// Incomplete flow backward over call and jump edges (the callee runs on
// top of — or in place of — the caller's activation either way), except
// through the barriers described on callEdge; RetArities, ArityUnknown,
// and ReturnsNormally flow backward over jump edges only (a tail call's
// returns go to the jumper's caller).
func (cg *CallGraph) Summarize() []Summary {
	sums := make([]Summary, len(cg.procs))
	for i, p := range cg.procs {
		sums[i] = p.seed
		sums[i].RetArities = maps.Clone(p.seed.RetArities)
	}
	for changed := true; changed; {
		changed = false
		set := func(dst *bool, src bool) {
			if src && !*dst {
				*dst = true
				changed = true
			}
		}
		for i, p := range cg.procs {
			sum := &sums[i]
			for _, e := range p.calls {
				cs := &sums[e.callee]
				set(&sum.MayCut, cs.MayCut && !e.catchesCut)
				set(&sum.MayYield, cs.MayYield && !e.catchesYield)
				set(&sum.Incomplete, cs.Incomplete)
			}
			for _, callee := range p.jumps {
				cs := &sums[callee]
				set(&sum.MayCut, cs.MayCut)
				set(&sum.MayYield, cs.MayYield)
				set(&sum.Incomplete, cs.Incomplete)
				for n := range cs.RetArities {
					if !sum.RetArities[n] {
						sum.RetArities[n] = true
						changed = true
					}
				}
				set(&sum.ArityUnknown, cs.ArityUnknown)
				set(&sum.ReturnsNormally, cs.ReturnsNormally)
			}
		}
	}
	return sums
}
