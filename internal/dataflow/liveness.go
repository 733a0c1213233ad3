package dataflow

import (
	"math/bits"

	"cmm/internal/cfg"
	"cmm/internal/syntax"
)

// Liveness holds per-node live-variable sets for a graph's local
// variables. Globals are modelled as always live (a C-- global register
// is visible to every other procedure), so they never appear in the
// sets; the optimizer must not delete assignments to them.
//
// Each set is a dense bitset over the graph's local slots, ⌈locals/64⌉
// words per node (bit i is slot i), and the In and Out sets of every
// node share one backing slice each, indexed by Node.ID. A Liveness is
// never written after the solve, so goroutines may share one.
type Liveness struct {
	Graph   *cfg.Graph
	words   int      // words per set
	in, out []uint64 // node n's set is words [n.ID*words, (n.ID+1)*words)
}

// ComputeLiveness runs backward live-variable analysis over the graph's
// flow edges — including the bundle edges introduced by the
// also-annotations, which is precisely what keeps values used by
// exception handlers alive across calls (§6).
func ComputeLiveness(g *cfg.Graph) *Liveness { return LivenessOver(g, g.Reachable(true), true) }

// LivenessOver is ComputeLiveness over the edge view
// cfg.Node.EachSucc(exceptional, _) visits: with exceptional false
// the unwind and cut edges are hidden, as the optimizer's unsound
// WithoutExceptionEdges ablation requires. Both views share this one
// solver. nodes must be g.Reachable(exceptional), which a caller that
// walks the graph anyway passes rather than walking it twice.
func LivenessOver(g *cfg.Graph, nodes []*cfg.Node, exceptional bool) *Liveness {
	w := (len(g.Locals) + 63) / 64
	lv := &Liveness{Graph: g, words: w,
		in: make([]uint64, g.NumIDs()*w), out: make([]uint64, g.NumIDs()*w)}

	// Transfer functions and successor IDs, by position in nodes: node
	// i's use and def sets are words [i*w, (i+1)*w) of use and def, its
	// successors' IDs are succ[start[i]:start[i+1]].
	use := make([]uint64, len(nodes)*w)
	def := make([]uint64, len(nodes)*w)
	start := make([]int, len(nodes)+1)
	succ := make([]int, 0, 2*len(nodes))
	for i, n := range nodes {
		u, d := use[i*w:(i+1)*w], def[i*w:(i+1)*w]
		eachVarEffect(n, func(v *syntax.VarExpr) { mark(u, v) }, func(v *syntax.VarExpr) { mark(d, v) })
		n.EachSucc(exceptional, func(s *cfg.Node) { succ = append(succ, s.ID) })
		start[i+1] = len(succ)
	}

	// Iterate to a fixed point, visiting in reverse order for speed and
	// updating the sets in place.
	for changed := true; changed; {
		changed = false
		for i := len(nodes) - 1; i >= 0; i-- {
			id := nodes[i].ID
			for k := 0; k < w; k++ {
				var out uint64
				for _, s := range succ[start[i]:start[i+1]] {
					out |= lv.in[s*w+k]
				}
				in := use[i*w+k] | out&^def[i*w+k]
				if out != lv.out[id*w+k] || in != lv.in[id*w+k] {
					lv.out[id*w+k], lv.in[id*w+k] = out, in
					changed = true
				}
			}
		}
	}
	return lv
}

// mark sets v's bit in set; variables that are not locals have none.
func mark(set []uint64, v *syntax.VarExpr) {
	if v.Ref == syntax.RefLocal {
		set[v.Slot/64] |= 1 << (v.Slot % 64)
	}
}

// set returns n's words of sets (lv.in or lv.out); it is empty for a
// node created after the solve.
func (lv *Liveness) set(sets []uint64, n *cfg.Node) []uint64 {
	if (n.ID+1)*lv.words > len(sets) {
		return nil
	}
	return sets[n.ID*lv.words : (n.ID+1)*lv.words]
}

func has(set []uint64, slot int) bool {
	return slot/64 < len(set) && set[slot/64]&(1<<(slot%64)) != 0
}

// slots lists the local slots whose bits set holds, in increasing order.
func slots(set []uint64) []int {
	var out []int
	for k, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, k*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// names lists the locals whose bits set holds, in slot (= name) order.
func (lv *Liveness) names(set []uint64) []string {
	var out []string
	for _, s := range slots(set) {
		out = append(out, lv.Graph.Locals[s].Name)
	}
	return out
}

// LiveIn reports whether local slot s is live on entry to n.
func (lv *Liveness) LiveIn(n *cfg.Node, s int) bool { return has(lv.set(lv.in, n), s) }

// LiveOut reports whether local slot s is live on exit from n.
func (lv *Liveness) LiveOut(n *cfg.Node, s int) bool { return has(lv.set(lv.out, n), s) }

// In returns the variables live on entry to n, in sorted order.
func (lv *Liveness) In(n *cfg.Node) []string { return lv.names(lv.set(lv.in, n)) }

// Out returns the variables live on exit from n, in sorted order.
func (lv *Liveness) Out(n *cfg.Node) []string { return lv.names(lv.set(lv.out, n)) }

// LiveAcross reports the slots of the locals live across a call node:
// live on entry to any of its bundle targets. These are the values a
// register allocator would like to keep in callee-saves registers
// (§4.2).
func (lv *Liveness) LiveAcross(call *cfg.Node) []int {
	if call.Bundle == nil {
		return nil
	}
	across := make([]uint64, lv.words)
	for _, group := range [][]*cfg.Node{call.Bundle.Returns, call.Bundle.Unwinds, call.Bundle.Cuts} {
		for _, t := range group {
			for _, s := range slots(lv.set(lv.in, t)) {
				// Values (re)defined by the continuation's own CopyIn are
				// passed in A, not preserved in registers.
				if !t.Binds(s) {
					across[s/64] |= 1 << (s % 64)
				}
			}
		}
	}
	return slots(across)
}
