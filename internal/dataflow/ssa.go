package dataflow

import (
	"fmt"
	"sort"
	"strings"

	"cmm/internal/cfg"
	"cmm/internal/syntax"
)

// SSA is a static single-assignment numbering of a graph's local
// variables, the presentation Figure 6 uses for the example procedure's
// dataflow. The graph itself is not rewritten; the numbering is a side
// table: every definition point gets a fresh index per variable, phi
// functions appear at join points, and every use is annotated with the
// index that reaches it.
type SSA struct {
	Graph *cfg.Graph
	Dom   *DomTree
	// Defs[n][v] is the SSA index v receives when n defines it.
	Defs map[*cfg.Node]map[string]int
	// Uses[n][v] is the SSA index of v at n's uses.
	Uses map[*cfg.Node]map[string]int
	// Phis[n] lists the phi functions placed at the head of n.
	Phis map[*cfg.Node][]*Phi
	// Count[v] is the number of SSA names created for v.
	Count map[string]int
}

// Phi is a phi function for Var placed at a join node: its result index
// and one argument index per predecessor.
type Phi struct {
	Var   string
	Index int
	Args  map[*cfg.Node]int // predecessor -> reaching index
}

// BuildSSA computes an SSA numbering for g's local variables.
func BuildSSA(g *cfg.Graph) *SSA {
	dt := ComputeDominators(g)
	s := &SSA{
		Graph: g,
		Dom:   dt,
		Defs:  map[*cfg.Node]map[string]int{},
		Uses:  map[*cfg.Node]map[string]int{},
		Phis:  map[*cfg.Node][]*Phi{},
		Count: map[string]int{},
	}
	nodes := dt.Order
	preds := map[*cfg.Node][]*cfg.Node{}
	for _, n := range nodes {
		for _, suc := range n.FlowSuccs() {
			preds[suc] = append(preds[suc], n)
		}
	}

	// The numbered variables: locals and continuations.
	numbered := map[string]bool{}
	for _, l := range g.Locals {
		numbered[l.Name] = true
	}
	for name := range g.ContMap {
		numbered[name] = true
	}
	// Collect definition sites per variable (Entry defines continuation
	// names; CopyIn defines its variables; Assign defines its target).
	defSites := map[string][]*cfg.Node{}
	for _, n := range nodes {
		ef := NodeEffects(n, nil)
		for v := range ef.VarDefs() {
			if numbered[v] {
				defSites[v] = append(defSites[v], n)
			}
		}
	}

	// Phi placement via dominance frontiers.
	vars := make([]string, 0, len(defSites))
	for v := range defSites {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		placed := map[*cfg.Node]bool{}
		work := append([]*cfg.Node{}, defSites[v]...)
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range dt.Frontier[n] {
				if placed[f] {
					continue
				}
				placed[f] = true
				s.Phis[f] = append(s.Phis[f], &Phi{Var: v, Args: map[*cfg.Node]int{}})
				work = append(work, f)
			}
		}
	}

	// Renaming via dominator-tree walk.
	stacks := map[string][]int{}
	top := func(v string) int {
		st := stacks[v]
		if len(st) == 0 {
			return 0 // index 0: "uninitialized" incoming value
		}
		return st[len(st)-1]
	}
	push := func(v string) int {
		s.Count[v]++
		idx := s.Count[v]
		stacks[v] = append(stacks[v], idx)
		return idx
	}

	var rename func(n *cfg.Node)
	rename = func(n *cfg.Node) {
		var popList []string
		for _, phi := range s.Phis[n] {
			phi.Index = push(phi.Var)
			popList = append(popList, phi.Var)
		}
		ef := NodeEffects(n, nil)
		uses := map[string]int{}
		for v := range ef.VarUses() {
			uses[v] = top(v)
		}
		s.Uses[n] = uses
		defs := map[string]int{}
		dvars := make([]string, 0)
		for v := range ef.VarDefs() {
			if numbered[v] {
				dvars = append(dvars, v)
			}
		}
		sort.Strings(dvars)
		for _, v := range dvars {
			defs[v] = push(v)
			popList = append(popList, v)
		}
		s.Defs[n] = defs
		// Fill in phi arguments of flow successors.
		for _, suc := range n.FlowSuccs() {
			for _, phi := range s.Phis[suc] {
				phi.Args[n] = top(phi.Var)
			}
		}
		for _, child := range dt.Children[n] {
			rename(child)
		}
		for i := len(popList) - 1; i >= 0; i-- {
			v := popList[i]
			stacks[v] = stacks[v][:len(stacks[v])-1]
		}
	}
	rename(g.Entry)
	return s
}

// Verify checks the SSA invariants: every phi has one argument per
// predecessor, and every use's reaching index comes from a def or phi
// that dominates the use (index 0, "uninitialized", is exempt — the
// checker cannot always rule it out and the semantics catches it at run
// time).
func (s *SSA) Verify() error {
	preds := map[*cfg.Node][]*cfg.Node{}
	for _, n := range s.Dom.Order {
		for _, suc := range n.FlowSuccs() {
			preds[suc] = append(preds[suc], n)
		}
	}
	defSite := map[string]*cfg.Node{} // "v#i" -> node
	key := func(v string, i int) string { return fmt.Sprintf("%s#%d", v, i) }
	for n, defs := range s.Defs {
		for v, i := range defs {
			k := key(v, i)
			if prev, dup := defSite[k]; dup {
				return fmt.Errorf("SSA name %s defined at both n%d and n%d", k, prev.ID, n.ID)
			}
			defSite[k] = n
		}
	}
	for n, phis := range s.Phis {
		for _, phi := range phis {
			if len(phi.Args) != len(preds[n]) {
				return fmt.Errorf("phi %s#%d at n%d has %d args for %d predecessors",
					phi.Var, phi.Index, n.ID, len(phi.Args), len(preds[n]))
			}
			k := key(phi.Var, phi.Index)
			if prev, dup := defSite[k]; dup {
				return fmt.Errorf("SSA name %s defined at both n%d and a phi at n%d", k, prev.ID, n.ID)
			}
			defSite[k] = n
		}
	}
	for n, uses := range s.Uses {
		for v, i := range uses {
			if i == 0 {
				continue
			}
			d, ok := defSite[key(v, i)]
			if !ok {
				return fmt.Errorf("use of %s#%d at n%d has no definition", v, i, n.ID)
			}
			if !s.Dom.Dominates(d, n) {
				return fmt.Errorf("use of %s#%d at n%d is not dominated by its definition at n%d",
					v, i, n.ID, d.ID)
			}
		}
	}
	return nil
}

// String renders the SSA numbering in Figure 6 style: each node with its
// phis, defs, and uses.
func (s *SSA) String() string {
	var sb strings.Builder
	num := map[*cfg.Node]int{}
	for i, n := range s.Dom.Order {
		num[n] = i
	}
	for _, n := range s.Dom.Order {
		fmt.Fprintf(&sb, "n%d %s:", num[n], n.Kind)
		for _, phi := range s.Phis[n] {
			var args []string
			for p, idx := range phi.Args {
				args = append(args, fmt.Sprintf("n%d:%s%d", num[p], phi.Var, idx))
			}
			sort.Strings(args)
			fmt.Fprintf(&sb, " %s%d=φ(%s)", phi.Var, phi.Index, strings.Join(args, ","))
		}
		var parts []string
		for v, i := range s.Uses[n] {
			parts = append(parts, fmt.Sprintf("use %s%d", v, i))
		}
		sort.Strings(parts)
		for _, p := range parts {
			fmt.Fprintf(&sb, " %s", p)
		}
		parts = parts[:0]
		for v, i := range s.Defs[n] {
			parts = append(parts, fmt.Sprintf("def %s%d", v, i))
		}
		sort.Strings(parts)
		for _, p := range parts {
			fmt.Fprintf(&sb, " %s", p)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ExprString is re-exported for tools that print annotated nodes.
func ExprString(e syntax.Expr) string { return syntax.ExprString(e) }
