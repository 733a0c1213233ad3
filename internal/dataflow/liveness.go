package dataflow

import (
	"math/bits"
	"slices"
	"sort"

	"cmm/internal/cfg"
)

// Liveness holds per-node live-variable sets for a graph's local
// variables. Globals are modelled as always live (a C-- global register
// is visible to every other procedure), so they never appear in the
// sets; the optimizer must not delete assignments to them.
//
// Each set is a dense bitset over the sorted locals, ⌈locals/64⌉ words
// per node, and the In and Out sets of every node share one backing
// slice each, indexed by Node.ID. A Liveness is never written after the
// solve, so goroutines may share one.
type Liveness struct {
	Graph   *cfg.Graph
	vars    []string // the locals, sorted: bit i of a set is vars[i]
	words   int      // words per set
	in, out []uint64 // node n's set is words [n.ID*words, (n.ID+1)*words)
}

// ComputeLiveness runs backward live-variable analysis over the graph's
// flow edges — including the bundle edges introduced by the
// also-annotations, which is precisely what keeps values used by
// exception handlers alive across calls (§6).
func ComputeLiveness(g *cfg.Graph) *Liveness { return LivenessOver(g, g.Reachable(true), true) }

// SortedLocals returns g's locals in sorted order: the variable index of
// Liveness's bitsets and of the optimizer's lattice vectors.
func SortedLocals(g *cfg.Graph) []string {
	vars := make([]string, 0, len(g.Locals))
	for v := range g.Locals {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// LivenessOver is ComputeLiveness over the edge view
// cfg.Node.EachSucc(exceptional, _) visits: with exceptional false
// the unwind and cut edges are hidden, as the optimizer's unsound
// WithoutExceptionEdges ablation requires. Both views share this one
// solver. nodes must be g.Reachable(exceptional), which a caller that
// walks the graph anyway passes rather than walking it twice.
func LivenessOver(g *cfg.Graph, nodes []*cfg.Node, exceptional bool) *Liveness {
	vars := SortedLocals(g)
	w := (len(vars) + 63) / 64
	lv := &Liveness{Graph: g, vars: vars, words: w,
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
		eachVarEffect(n, func(v string) { lv.mark(u, v) }, func(v string) { lv.mark(d, v) })
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
func (lv *Liveness) mark(set []uint64, v string) {
	if i := sort.SearchStrings(lv.vars, v); i < len(lv.vars) && lv.vars[i] == v {
		set[i/64] |= 1 << (i % 64)
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

func (lv *Liveness) has(set []uint64, v string) bool {
	i := sort.SearchStrings(lv.vars, v)
	return i < len(lv.vars) && lv.vars[i] == v && i/64 < len(set) && set[i/64]&(1<<(i%64)) != 0
}

// names lists the variables whose bits set holds, in sorted order.
func (lv *Liveness) names(set []uint64) []string {
	var out []string
	for k, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, lv.vars[k*64+bits.TrailingZeros64(word)])
		}
	}
	return out
}

// LiveIn reports whether v is live on entry to n.
func (lv *Liveness) LiveIn(n *cfg.Node, v string) bool { return lv.has(lv.set(lv.in, n), v) }

// LiveOut reports whether v is live on exit from n.
func (lv *Liveness) LiveOut(n *cfg.Node, v string) bool { return lv.has(lv.set(lv.out, n), v) }

// In returns the variables live on entry to n, in sorted order.
func (lv *Liveness) In(n *cfg.Node) []string { return lv.names(lv.set(lv.in, n)) }

// Out returns the variables live on exit from n, in sorted order.
func (lv *Liveness) Out(n *cfg.Node) []string { return lv.names(lv.set(lv.out, n)) }

// LiveAcross reports the variables live across a call node: live on
// entry to any of its bundle targets. These are the values a register
// allocator would like to keep in callee-saves registers (§4.2).
func (lv *Liveness) LiveAcross(call *cfg.Node) []string {
	if call.Bundle == nil {
		return nil
	}
	across := make([]uint64, lv.words)
	for _, group := range [][]*cfg.Node{call.Bundle.Returns, call.Bundle.Unwinds, call.Bundle.Cuts} {
		for _, t := range group {
			for _, v := range lv.In(t) {
				// Values (re)defined by the continuation's own CopyIn are
				// passed in A, not preserved in registers.
				if t.Kind != cfg.KindCopyIn || !slices.Contains(t.Vars, v) {
					lv.mark(across, v)
				}
			}
		}
	}
	return lv.names(across)
}
