// Package dataflow implements Table 3 of the paper: the rules that add
// dataflow information (definitions, uses, copies, and kills) to an
// Abstract C-- procedure, and the standard analyses built on them —
// liveness, dominators, and static single-assignment numbering (the
// Figure 6 presentation). Exceptional control flow needs no special
// treatment here: the bundle edges added by the also-annotations carry
// the same dataflow as any other edge, which is the paper's central
// claim about optimization (§6).
package dataflow

import (
	"fmt"

	"cmm/internal/cfg"
	"cmm/internal/syntax"
)

// Pseudo-resources of Table 3: memory and the value-passing area appear
// in the rules alongside ordinary variables. MemVar is the paper's M;
// AVar(i) is A[i].
const MemVar = "$M"

// AVar names the i'th slot of the value-passing area.
func AVar(i int) string { return fmt.Sprintf("$A%d", i) }

// Copy records that a node copies src into dst unchanged, the "copies"
// category of Table 3 (CopyIn and CopyOut nodes).
type Copy struct {
	Dst, Src string
}

// Effects is the dataflow behaviour of one node per Table 3. EdgeDefs
// lists definitions that occur along a specific out-edge (a call defines
// the A values a continuation receives only along the edge to that
// continuation). Kills are destroyed values: along a cut edge, every
// variable that may be in a callee-saves register.
type Effects struct {
	Uses   map[string]bool
	Defs   map[string]bool
	Copies []Copy
	Kills  map[string]bool
	// EdgeDefs and EdgeUses attach resources to particular flow edges.
	EdgeDefs map[*cfg.Node][]string
	// EdgeKills lists per-edge kills: callee-saves variables along
	// also-cuts-to edges (§4.2: "the callee-saves registers must be
	// considered killed by flow edges from the call to any cut-to
	// continuations").
	EdgeKills map[*cfg.Node][]string
	// AbortUses holds the A values used along the implicit edge to the
	// procedure's exit when a call site is annotated also aborts
	// (Table 3: "If abort is True, place use A[i] ... along the edge to
	// the exit node"): the aborting activation's pending results flow
	// out through the exit.
	AbortUses []string
}

func newEffects() *Effects {
	return &Effects{
		Uses:      map[string]bool{},
		Defs:      map[string]bool{},
		Kills:     map[string]bool{},
		EdgeDefs:  map[*cfg.Node][]string{},
		EdgeKills: map[*cfg.Node][]string{},
	}
}

// memRef stands for MemVar where a variable reference is expected.
var memRef = &syntax.VarExpr{Name: MemVar}

// FreeVars adds the free variables of e to set; a memory load adds
// MemVar, exactly as fv in Table 3 "possibly includes the variable M".
func FreeVars(e syntax.Expr, set map[string]bool) {
	eachFreeVar(e, func(v *syntax.VarExpr) { set[v.Name] = true })
}

// eachFreeVar calls f on each free variable of e, as FreeVars collects
// them (a memory load as memRef), without allocating.
func eachFreeVar(e syntax.Expr, f func(*syntax.VarExpr)) {
	switch e := e.(type) {
	case *syntax.VarExpr:
		f(e)
	case *syntax.MemExpr:
		f(memRef)
		eachFreeVar(e.Addr, f)
	case *syntax.UnExpr:
		eachFreeVar(e.X, f)
	case *syntax.BinExpr:
		eachFreeVar(e.X, f)
		eachFreeVar(e.Y, f)
	case *syntax.PrimExpr:
		for _, a := range e.Args {
			eachFreeVar(a, f)
		}
	}
}

// contParamCount returns how many parameters a bundle target expects.
func contParamCount(n *cfg.Node) int {
	if n.Kind == cfg.KindCopyIn {
		return len(n.Vars)
	}
	return 0
}

// eachVarEffect is the part of n's Table 3 row that names variables other
// than continuations: it calls use on the free variables of n's
// expressions (with memRef for a memory load) and def on the variables n
// binds. NodeEffects adds the rest of the row; liveness needs only this
// part, and it allocates nothing.
func eachVarEffect(n *cfg.Node, use, def func(*syntax.VarExpr)) {
	switch n.Kind {
	case cfg.KindCopyIn:
		for _, v := range n.Vars {
			def(v)
		}
	case cfg.KindCopyOut:
		for _, e := range n.Exprs {
			eachFreeVar(e, use)
		}
	case cfg.KindAssign:
		eachFreeVar(n.RHS, use)
		if n.LHSMem != nil {
			eachFreeVar(n.LHSMem.Addr, use)
		} else {
			def(n.LHSVar)
		}
	case cfg.KindBranch:
		eachFreeVar(n.Cond, use)
	case cfg.KindGoto:
		eachFreeVar(n.Target, use)
	case cfg.KindCall, cfg.KindJump, cfg.KindCutTo:
		eachFreeVar(n.Callee, use)
	}
}

// NodeEffects computes the Table 3 row for n. calleeSaves is the set of
// variables currently held in callee-saves registers at the call (σ);
// pass nil for directly translated code, where σ is empty.
func NodeEffects(n *cfg.Node, calleeSaves map[string]bool) *Effects {
	ef := newEffects()
	eachVarEffect(n, func(v *syntax.VarExpr) { ef.Uses[v.Name] = true }, func(v *syntax.VarExpr) { ef.Defs[v.Name] = true })
	switch n.Kind {
	case cfg.KindEntry:
		// Entry: def each continuation variable; def M; def A[i] for the
		// procedure's incoming parameters (consumed by the following
		// CopyIn).
		for _, cb := range n.Conts {
			ef.Defs[cb.Name] = true
		}
		ef.Defs[MemVar] = true
		if len(n.Succ) > 0 && n.Succ[0].Kind == cfg.KindCopyIn {
			for i := range n.Succ[0].Vars {
				ef.Defs[AVar(i)] = true
			}
		}
	case cfg.KindExit:
		// Exit: use M; use A[i] for each result.
		ef.Uses[MemVar] = true
		// The number of results is however many the preceding CopyOut
		// placed; Exit itself cannot know, so a conservative consumer
		// treats all of A as used. We record this with a marker the
		// liveness analysis understands: uses of A are paired with the
		// defining CopyOut adjacent to the Exit.
	case cfg.KindCopyIn:
		for i, v := range n.Vars {
			ef.Copies = append(ef.Copies, Copy{Dst: v.Name, Src: AVar(i)})
			ef.Uses[AVar(i)] = true
		}
	case cfg.KindCopyOut:
		for i, e := range n.Exprs {
			ef.Defs[AVar(i)] = true
			if v, ok := e.(*syntax.VarExpr); ok {
				ef.Copies = append(ef.Copies, Copy{Dst: AVar(i), Src: v.Name})
			}
		}
	case cfg.KindCalleeSaves:
		// No effect on dataflow.
	case cfg.KindAssign:
		if n.LHSMem != nil {
			ef.Defs[MemVar] = true
		}
	case cfg.KindCall:
		ef.Uses[MemVar] = true
		ef.Defs[MemVar] = true
		// use A[i] for the call's parameters: the preceding CopyOut
		// defined them.
		if b := n.Bundle; b != nil {
			for _, group := range [][]*cfg.Node{b.Returns, b.Unwinds, b.Cuts} {
				for _, target := range group {
					cnt := contParamCount(target)
					for i := 0; i < cnt; i++ {
						ef.EdgeDefs[target] = append(ef.EdgeDefs[target], AVar(i))
					}
				}
			}
			// Callee-saves variables are killed along cut edges.
			for _, target := range b.Cuts {
				for v := range calleeSaves {
					ef.EdgeKills[target] = append(ef.EdgeKills[target], v)
				}
			}
			// Table 3's abort rule: along the edge to the exit node, the
			// procedure's results (however many A slots the exit's
			// CopyOut provides; we conservatively mark the first) are
			// used. This keeps an aborting call from being treated as
			// falling off the graph with nothing live.
			if b.Abort {
				ef.AbortUses = append(ef.AbortUses, AVar(0))
			}
		}
	case cfg.KindJump:
		ef.Uses[MemVar] = true
	case cfg.KindCutTo:
		ef.Uses[MemVar] = true
		if b := n.Bundle; b != nil {
			for _, target := range b.Cuts {
				cnt := contParamCount(target)
				for i := 0; i < cnt; i++ {
					ef.EdgeDefs[target] = append(ef.EdgeDefs[target], AVar(i))
				}
				for v := range calleeSaves {
					ef.EdgeKills[target] = append(ef.EdgeKills[target], v)
				}
			}
		}
	case cfg.KindYield:
		// "Not in any optimized procedure."
	}
	return ef
}

// VarUses returns the ordinary (non-pseudo) variables n uses; the A and
// M pseudo-resources are filtered out.
func (ef *Effects) VarUses() map[string]bool {
	out := map[string]bool{}
	for v := range ef.Uses {
		if !isPseudo(v) {
			out[v] = true
		}
	}
	return out
}

// VarDefs returns the ordinary variables n defines.
func (ef *Effects) VarDefs() map[string]bool {
	out := map[string]bool{}
	for v := range ef.Defs {
		if !isPseudo(v) {
			out[v] = true
		}
	}
	return out
}

func isPseudo(v string) bool { return len(v) > 0 && v[0] == '$' }
