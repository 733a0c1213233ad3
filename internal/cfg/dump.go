package cfg

import (
	"fmt"
	"strings"

	"cmm/internal/syntax"
)

// String renders the graph in a stable, human-readable form with nodes
// numbered in depth-first order. It is used by tools and golden tests.
func (g *Graph) String() string {
	order := g.Nodes()
	num := map[*Node]int{}
	for i, n := range order {
		num[n] = i
	}
	ref := func(n *Node) string {
		if n == nil {
			return "?"
		}
		return fmt.Sprintf("n%d", num[n])
	}
	refs := func(ns []*Node) string {
		parts := make([]string, len(ns))
		for i, n := range ns {
			parts[i] = ref(n)
		}
		return strings.Join(parts, ",")
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s(", g.Name)
	for i, f := range g.Formals {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", f.Type, f.Name)
	}
	sb.WriteString(")\n")
	for _, n := range order {
		fmt.Fprintf(&sb, "  n%d: %s", num[n], describe(n, ref))
		if len(n.Succ) > 0 && n.Kind != KindBranch && n.Kind != KindGoto {
			fmt.Fprintf(&sb, " -> %s", refs(n.Succ))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func describe(n *Node, ref func(*Node) string) string {
	switch n.Kind {
	case KindEntry:
		parts := make([]string, len(n.Conts))
		for i, cb := range n.Conts {
			parts[i] = fmt.Sprintf("%s=%s", cb.Name, ref(cb.Node))
		}
		return fmt.Sprintf("Entry [%s]", strings.Join(parts, " "))
	case KindExit:
		return fmt.Sprintf("Exit <%d/%d>", n.RetIndex, n.RetArity)
	case KindCopyIn:
		s := fmt.Sprintf("CopyIn [%s]", strings.Join(Names(n.Vars), " "))
		if n.ContName != "" {
			s += fmt.Sprintf(" (continuation %s)", n.ContName)
		}
		return s
	case KindCopyOut:
		parts := make([]string, len(n.Exprs))
		for i, e := range n.Exprs {
			parts[i] = syntax.ExprString(e)
		}
		return fmt.Sprintf("CopyOut [%s]", strings.Join(parts, " "))
	case KindCalleeSaves:
		return fmt.Sprintf("CalleeSaves {%s}", strings.Join(Names(n.Saved), " "))
	case KindAssign:
		if n.LHSMem != nil {
			return fmt.Sprintf("Assign %s := %s", syntax.ExprString(n.LHSMem), syntax.ExprString(n.RHS))
		}
		return fmt.Sprintf("Assign %s := %s", n.LHSVar.Name, syntax.ExprString(n.RHS))
	case KindBranch:
		return fmt.Sprintf("Branch %s ? %s : %s", syntax.ExprString(n.Cond), ref(n.Succ[0]), ref(n.Succ[1]))
	case KindCall:
		callee := "yield"
		if !n.IsYield {
			callee = syntax.ExprString(n.Callee)
		}
		return fmt.Sprintf("Call %s %s", callee, bundleString(n.Bundle, ref))
	case KindJump:
		return fmt.Sprintf("Jump %s", syntax.ExprString(n.Callee))
	case KindCutTo:
		return fmt.Sprintf("CutTo %s %s", syntax.ExprString(n.Callee), bundleString(n.Bundle, ref))
	case KindYield:
		return "Yield"
	case KindGoto:
		if n.Target != nil {
			tgts := make([]string, len(n.Succ))
			for i, s := range n.Succ {
				tgts[i] = ref(s)
			}
			return fmt.Sprintf("Goto %s targets [%s]", syntax.ExprString(n.Target), strings.Join(tgts, " "))
		}
		return fmt.Sprintf("Goto %s", ref(n.Succ[0]))
	}
	return n.Kind.String()
}

func bundleString(b *Bundle, ref func(*Node) string) string {
	if b == nil {
		return "{}"
	}
	var parts []string
	rets := make([]string, len(b.Returns))
	for i, n := range b.Returns {
		rets[i] = ref(n)
	}
	parts = append(parts, fmt.Sprintf("returns=[%s]", strings.Join(rets, " ")))
	if len(b.Unwinds) > 0 {
		us := make([]string, len(b.Unwinds))
		for i, n := range b.Unwinds {
			us[i] = ref(n)
		}
		parts = append(parts, fmt.Sprintf("unwinds=[%s]", strings.Join(us, " ")))
	}
	if len(b.Cuts) > 0 {
		cs := make([]string, len(b.Cuts))
		for i, n := range b.Cuts {
			cs[i] = ref(n)
		}
		parts = append(parts, fmt.Sprintf("cuts=[%s]", strings.Join(cs, " ")))
	}
	if b.Abort {
		parts = append(parts, "aborts")
	}
	return "{" + strings.Join(parts, " ") + "}"
}
