// Package cfg implements Abstract C--, the paper's core intermediate
// representation (§5): each procedure is a control-flow graph built from
// the node kinds of Table 2, and a program is a partial map from names to
// procedures. Package cfg also implements the translation from C-- source
// to Abstract C-- described in §5.3.
//
// The paper's node kinds are reproduced exactly, with two pragmatic
// additions that the paper leaves implicit:
//
//   - Goto nodes materialize labels and computed gotos ("a label names a
//     node in the graph, and a goto creates an edge", §3.2). Direct gotos
//     are collapsed away after translation; a Goto node survives only for
//     a computed goto (which needs a node carrying its target expression)
//     or a degenerate self-loop.
//   - Call nodes with IsYield set represent calls to the special
//     run-time procedure yield (§3.3); the body of that procedure is the
//     single Yield node of the program, exactly as in the semantics where
//     Yield "executes a procedure in the run-time system".
package cfg

import (
	"fmt"

	"cmm/internal/syntax"
)

// NodeKind enumerates the kinds of nodes in a control-flow graph
// (Table 2).
type NodeKind int

// Table 2 node kinds, plus Goto (see the package comment).
const (
	KindEntry NodeKind = iota
	KindExit
	KindCopyIn
	KindCopyOut
	KindCalleeSaves
	KindAssign
	KindBranch
	KindCall
	KindJump
	KindCutTo
	KindYield
	KindGoto
)

func (k NodeKind) String() string {
	switch k {
	case KindEntry:
		return "Entry"
	case KindExit:
		return "Exit"
	case KindCopyIn:
		return "CopyIn"
	case KindCopyOut:
		return "CopyOut"
	case KindCalleeSaves:
		return "CalleeSaves"
	case KindAssign:
		return "Assign"
	case KindBranch:
		return "Branch"
	case KindCall:
		return "Call"
	case KindJump:
		return "Jump"
	case KindCutTo:
		return "CutTo"
	case KindYield:
		return "Yield"
	case KindGoto:
		return "Goto"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// ContBinding pairs a continuation name with the node representing it, as
// bound by a procedure's Entry node (the kk sequence of §5.2).
type ContBinding struct {
	Name string
	Node *Node // the continuation's CopyIn node
}

// Bundle is a continuation bundle (Table 2): the possible outcomes of a
// call. Returns holds the nodes for continuations listed in "also returns
// to" plus, LAST, the node for normal returns ("the normal return
// continuation is always the last", §4.2). Unwinds and Cuts hold the
// nodes for "also unwinds to" and "also cuts to". Abort is true when the
// call site is annotated "also aborts".
type Bundle struct {
	Returns     []*Node
	Unwinds     []*Node
	Cuts        []*Node
	Abort       bool
	Descriptors []syntax.Expr
}

// NormalReturn returns the node control reaches on a normal return.
func (b *Bundle) NormalReturn() *Node { return b.Returns[len(b.Returns)-1] }

// AlternateCount returns the number of alternate (non-normal) return
// continuations, i.e. the n a callee must cite in return <m/n>.
func (b *Bundle) AlternateCount() int { return len(b.Returns) - 1 }

// HasExceptionalEdge reports whether the bundle declares any outcome
// beyond a normal return: an alternate return continuation, an unwind or
// cut target, or also aborts. A call site whose bundle has no
// exceptional edge can only be resumed at its normal return continuation
// (§4.4).
func (b *Bundle) HasExceptionalEdge() bool {
	return b.AlternateCount() > 0 || len(b.Unwinds) > 0 || len(b.Cuts) > 0 || b.Abort
}

// Node is one node of an Abstract C-- control-flow graph. Which fields
// are meaningful depends on Kind; see Table 2.
type Node struct {
	ID   int
	Kind NodeKind
	Pos  syntax.Pos

	// Entry: the continuations declared in the procedure body.
	Conts []ContBinding

	// Exit: return to continuation RetIndex of RetArity alternates.
	RetIndex, RetArity int

	// CopyIn: destination variables; ContName is nonempty when this node
	// is the entry of a continuation (it is then listed in Entry.Conts
	// and may be a bundle target).
	Vars     []*syntax.VarExpr
	ContName string

	// CopyOut: source expressions whose values fill the value-passing
	// area A.
	Exprs []syntax.Expr

	// CalleeSaves: the new set of variables held in callee-saves
	// registers (introduced only by optimization, §5.2).
	Saved []*syntax.VarExpr

	// Assign: either LHSVar or LHSMem is set.
	LHSVar *syntax.VarExpr
	LHSMem *syntax.MemExpr
	RHS    syntax.Expr

	// Branch: condition; Succ[0] is taken when true, Succ[1] when false.
	Cond syntax.Expr

	// Call: callee expression and continuation bundle. IsYield marks a
	// call to the run-time procedure yield. Jump and CutTo use Callee for
	// the target (CutTo's target is a continuation value); CutTo reuses
	// Bundle for its "also cuts to"/"also aborts" annotations.
	Callee  syntax.Expr
	IsYield bool
	Bundle  *Bundle

	// Goto: Target is nil for a collapsed-away direct goto; for a
	// computed goto it is the target expression and Succ lists the nodes
	// of the statically declared target labels.
	Target syntax.Expr

	// Succ is the ordered successor list; its interpretation depends on
	// Kind. Entry, CopyIn, CopyOut, CalleeSaves, and Assign have one
	// successor; Branch has two; Goto has one or more; Exit, Call, Jump,
	// CutTo, and Yield have none (a Call's successors live in its
	// Bundle).
	Succ []*Node
}

// Names returns the names of the variables vs.
func Names(vs []*syntax.VarExpr) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

// Binds reports whether n is a CopyIn that binds local slot s.
func (n *Node) Binds(s int) bool {
	for _, v := range n.Vars {
		if v.Ref == syntax.RefLocal && v.Slot == s {
			return true
		}
	}
	return false
}

// Graph is the control-flow graph of one procedure.
type Graph struct {
	Name    string
	Formals []Var
	// Locals is the slot table: every local, including formals and
	// temporaries, in name order. A local's slot is its index here.
	Locals  []Var
	Entry   *Node
	ContMap map[string]*Node // continuation name -> CopyIn node

	nextID int
	nodes  []*Node // every node ever created (may include unreachable)
}

// Var is a formal parameter or a local variable of a graph.
type Var struct {
	Name string
	Type syntax.Type
}

// NewNode allocates a node in g.
func (g *Graph) NewNode(kind NodeKind, pos syntax.Pos) *Node {
	n := &Node{ID: g.nextID, Kind: kind, Pos: pos}
	g.nextID++
	g.nodes = append(g.nodes, n)
	return n
}

// FlowSuccs returns the flow edges of a node: its Succ list plus, for
// calls and cuts, the bundle targets. These are exactly the edges
// Table 3's dataflow follows.
func (n *Node) FlowSuccs() []*Node {
	var out []*Node
	n.EachSucc(true, func(s *Node) { out = append(out, s) })
	return out
}

// EachSucc calls f on each of n's flow successors, in FlowSuccs order.
// With exceptional false it skips the unwind and cut edges: the view of
// the optimizer's unsound WithoutExceptionEdges ablation.
func (n *Node) EachSucc(exceptional bool, f func(*Node)) {
	for _, s := range n.Succ {
		f(s)
	}
	if b := n.Bundle; b != nil {
		for _, s := range b.Returns {
			f(s)
		}
		if exceptional {
			for _, s := range b.Unwinds {
				f(s)
			}
			for _, s := range b.Cuts {
				f(s)
			}
		}
	}
}

// NumIDs bounds the IDs of g's nodes: 0 <= n.ID < g.NumIDs() for every
// node g has created, so analyses can index dense tables by ID.
func (g *Graph) NumIDs() int { return g.nextID }

// Nodes returns the nodes reachable from the entry (and hence from every
// live continuation), in a stable depth-first order.
func (g *Graph) Nodes() []*Node { return g.Reachable(true) }

// Reachable returns the nodes reachable from the entry over the edges
// EachSucc(exceptional, _) visits, in Nodes' depth-first order.
// Continuations bound at Entry are reached in either view.
func (g *Graph) Reachable(exceptional bool) []*Node {
	order := make([]*Node, 0, len(g.nodes))
	seen := make([]bool, g.nextID)
	var visit func(n *Node)
	visit = func(n *Node) {
		if n == nil || seen[n.ID] {
			return
		}
		seen[n.ID] = true
		order = append(order, n)
		n.EachSucc(exceptional, visit)
		// Entry binds continuations, making them reachable even if no
		// flow edge mentions them yet.
		for _, cb := range n.Conts {
			visit(cb.Node)
		}
	}
	visit(g.Entry)
	return order
}

// Preds computes the predecessor map over reachable nodes.
func (g *Graph) Preds() map[*Node][]*Node {
	preds := map[*Node][]*Node{}
	for _, n := range g.Nodes() {
		for _, s := range n.FlowSuccs() {
			preds[s] = append(preds[s], n)
		}
	}
	return preds
}

// GlobalVar is a global register variable with its constant initial
// value.
type GlobalVar struct {
	Name string
	Type syntax.Type
	Init uint64 // raw bits of the initial value
}

// Program is an Abstract C-- program: named graphs plus the static
// environment they run in.
type Program struct {
	Graphs  map[string]*Graph
	Order   []string // graph names in source order (synthesized last)
	Globals []GlobalVar
	Data    []*syntax.DataSection
	Exports []string
	Imports []string

	// YieldNode is the single Yield node shared by the whole program: the
	// "procedure in the run-time system" that yield calls execute.
	YieldNode *Node

	Source *syntax.Program
}

// Graph returns the named graph, or nil.
func (p *Program) Graph(name string) *Graph { return p.Graphs[name] }

// YieldCode values passed by synthesized slow-but-solid primitives when
// they fail (§4.3).
const (
	YieldDivZero  = 0x10001 // zero divisor in %%divu/%%divs/%%remu/%%rems
	YieldOverflow = 0x10002 // overflow in %%divs, %%f2i
)
