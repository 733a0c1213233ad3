package dataflow_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/dataflow"
	"cmm/internal/minim3"
	"cmm/internal/opt"
	"cmm/internal/paper"
	"cmm/internal/progen"
	"cmm/internal/syntax"
)

// The reference below is the map-based liveness solver the dense one
// replaced, kept as the oracle: refNodes is the depth-first walk,
// refSuccs an edge view, refLiveness the fixed point. Each mirrors the
// code it replaced line for line, apart from taking the view as a
// parameter and counting rounds.

func refSuccs(exceptional bool) func(n *cfg.Node) []*cfg.Node {
	return func(n *cfg.Node) []*cfg.Node {
		var out []*cfg.Node
		out = append(out, n.Succ...)
		if n.Bundle != nil {
			out = append(out, n.Bundle.Returns...)
			if exceptional {
				out = append(out, n.Bundle.Unwinds...)
				out = append(out, n.Bundle.Cuts...)
			}
		}
		return out
	}
}

func refNodes(g *cfg.Graph, succs func(*cfg.Node) []*cfg.Node) []*cfg.Node {
	var order []*cfg.Node
	seen := map[*cfg.Node]bool{}
	var visit func(n *cfg.Node)
	visit = func(n *cfg.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		order = append(order, n)
		for _, s := range succs(n) {
			visit(s)
		}
		for _, cb := range n.Conts {
			visit(cb.Node)
		}
	}
	visit(g.Entry)
	return order
}

func refLiveness(g *cfg.Graph, exceptional bool) (in, out map[*cfg.Node]map[string]bool, rounds int) {
	in, out = map[*cfg.Node]map[string]bool{}, map[*cfg.Node]map[string]bool{}
	succs := refSuccs(exceptional)
	nodes := refNodes(g, succs)
	isLocal := func(v string) bool {
		return slices.ContainsFunc(g.Locals, func(l cfg.Var) bool { return l.Name == v })
	}
	use := map[*cfg.Node]map[string]bool{}
	def := map[*cfg.Node]map[string]bool{}
	for _, n := range nodes {
		ef := dataflow.NodeEffects(n, nil)
		u, d := map[string]bool{}, map[string]bool{}
		for v := range ef.VarUses() {
			if isLocal(v) {
				u[v] = true
			}
		}
		for v := range ef.VarDefs() {
			if isLocal(v) {
				d[v] = true
			}
		}
		use[n], def[n] = u, d
		in[n] = map[string]bool{}
		out[n] = map[string]bool{}
	}
	changed := true
	for changed {
		changed = false
		rounds++
		for i := len(nodes) - 1; i >= 0; i-- {
			n := nodes[i]
			o := map[string]bool{}
			for _, s := range succs(n) {
				for v := range in[s] {
					o[v] = true
				}
			}
			ni := map[string]bool{}
			for v := range o {
				if !def[n][v] {
					ni[v] = true
				}
			}
			for v := range use[n] {
				ni[v] = true
			}
			if !sameSet(o, out[n]) {
				out[n] = o
				changed = true
			}
			if !sameSet(ni, in[n]) {
				in[n] = ni
				changed = true
			}
		}
	}
	return in, out, rounds
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sortedSet(s map[string]bool) []string {
	var out []string
	for v := range s {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func buildProgram(t testing.TB, name, src string) *cfg.Program {
	t.Helper()
	ast, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	info, err := check.Check(ast)
	if err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	prog, err := cfg.Build(ast, info)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	return prog
}

// compareWithReference checks the dense solver against refLiveness at
// every node reachable in both edge views, and Reachable's order
// against refNodes'.
func compareWithReference(t *testing.T, where string, g *cfg.Graph) {
	t.Helper()
	for _, exceptional := range []bool{true, false} {
		view := fmt.Sprintf("%s/%s exceptional=%v", where, g.Name, exceptional)
		nodes := g.Reachable(exceptional)
		if want := refNodes(g, refSuccs(exceptional)); !slices.Equal(nodes, want) {
			t.Errorf("%s: Reachable order differs from the reference walk", view)
		}
		in, out, _ := refLiveness(g, exceptional)
		lv := dataflow.LivenessOver(g, nodes, exceptional)
		for _, n := range nodes {
			if got, want := lv.In(n), sortedSet(in[n]); !slices.Equal(got, want) {
				t.Errorf("%s: n%d %s: live-in %v, reference %v", view, n.ID, n.Kind, got, want)
			}
			if got, want := lv.Out(n), sortedSet(out[n]); !slices.Equal(got, want) {
				t.Errorf("%s: n%d %s: live-out %v, reference %v", view, n.ID, n.Kind, got, want)
			}
			for s, l := range g.Locals {
				if v := l.Name; lv.LiveIn(n, s) != in[n][v] || lv.LiveOut(n, s) != out[n][v] {
					t.Errorf("%s: n%d %s: LiveIn/LiveOut(%s) disagree with the reference", view, n.ID, n.Kind, v)
				}
			}
		}
	}
}

// livenessCorpus is every program the oracle test runs: Figure 1, the
// documentation examples, the optimizer's cycle workloads, game.m3
// under each exception policy, and fifty generated programs.
func livenessCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := map[string]string{}
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	corpus["figure1.cmm"] = read("../../testdata/figure1.cmm")
	docs, err := filepath.Glob("../../examples/docs/*.cmm")
	if err != nil || len(docs) == 0 {
		t.Fatalf("examples/docs: %v (%d files)", err, len(docs))
	}
	for _, path := range docs {
		corpus[filepath.Base(path)] = read(path)
	}
	for _, w := range paper.CycleWorkloads {
		corpus["workload "+w.Name] = w.Src
	}
	game := read("../../testdata/game.m3")
	for _, pol := range minim3.Policies {
		src, err := minim3.CompileWith(game, pol, minim3.CompileOptions{Prune: true})
		if err != nil {
			t.Fatalf("game.m3 %s: %v", pol, err)
		}
		corpus["game.m3 "+pol.String()] = src
	}
	for seed := int64(0); seed < 50; seed++ {
		corpus[fmt.Sprintf("progen %d", seed)] = progen.Generate(seed, progen.Config{Exceptions: seed%2 == 0})
	}
	return corpus
}

// TestLivenessMatchesReference: the dense bitset solver computes exactly
// the reference solver's live-in and live-out sets, in both edge views,
// on every procedure of the corpus before and after optimization.
func TestLivenessMatchesReference(t *testing.T) {
	for name, src := range livenessCorpus(t) {
		prog := buildProgram(t, name, src)
		for _, pname := range prog.Order {
			g := prog.Graphs[pname]
			compareWithReference(t, name, g)
			opt.Optimize(g, opt.Options{})
			compareWithReference(t, name+" optimized", g)
		}
	}
}

const loopNest = `
f(bits32 n) {
    bits32 i, j, s;
    s = 0;
    i = 0;
outer:
    if i == n { return (s); }
    j = 0;
inner:
    if j == i { i = i + 1; goto outer; }
    s = s + j;
    j = j + 1;
    goto inner;
}
`

// straightLine returns a loop-free procedure with the loop nest's
// locals and k assignments.
func straightLine(k int) string {
	var sb strings.Builder
	sb.WriteString("f(bits32 n) {\n    bits32 i, j, s;\n    i = n;\n    j = i;\n")
	for a := 2; a < k; a++ {
		sb.WriteString("    s = i + j;\n")
	}
	sb.WriteString("    return (s);\n}\n")
	return sb.String()
}

// TestLivenessAllocsIndependentOfRounds: the solver allocates nothing
// inside its fixed-point loop, so a loop nest that takes several rounds
// allocates no more than a straight-line procedure of the same size.
func TestLivenessAllocsIndependentOfRounds(t *testing.T) {
	loopProg := buildProgram(t, "loop nest", loopNest)
	loop := loopProg.Graph("f")
	if _, _, rounds := refLiveness(loop, true); rounds < 3 {
		t.Fatalf("loop nest converges in %d rounds; the test needs at least 3", rounds)
	}
	var straight *cfg.Graph
	for k := 2; straight == nil || len(straight.Nodes()) < len(loop.Nodes()); k++ {
		prog := buildProgram(t, "straight line", straightLine(k))
		straight = prog.Graph("f")
	}
	if len(straight.Nodes()) != len(loop.Nodes()) || len(straight.Locals) != len(loop.Locals) {
		t.Fatalf("straight line has %d nodes and %d locals, loop nest %d and %d",
			len(straight.Nodes()), len(straight.Locals), len(loop.Nodes()), len(loop.Locals))
	}
	if _, _, rounds := refLiveness(straight, true); rounds > 2 {
		t.Fatalf("straight line converges in %d rounds, want at most 2", rounds)
	}
	allocs := func(g *cfg.Graph) float64 {
		return testing.AllocsPerRun(20, func() { dataflow.ComputeLiveness(g) })
	}
	if l, s := allocs(loop), allocs(straight); l > s {
		t.Errorf("loop nest allocates %v times per solve, straight line %v: the fixed-point loop allocates", l, s)
	}
}

// BenchmarkComputeLiveness solves liveness for every procedure of
// Figure 1 and of game.m3 compiled under each exception policy.
func BenchmarkComputeLiveness(b *testing.B) {
	srcs := []string{paper.Figure1}
	game, err := os.ReadFile("../../testdata/game.m3")
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range minim3.Policies {
		src, err := minim3.CompileWith(string(game), pol, minim3.CompileOptions{Prune: true})
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	var graphs []*cfg.Graph
	for i, src := range srcs {
		prog := buildProgram(b, fmt.Sprint("source ", i), src)
		for _, name := range prog.Order {
			graphs = append(graphs, prog.Graphs[name])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			sink = dataflow.ComputeLiveness(g)
		}
	}
}

var sink *dataflow.Liveness
