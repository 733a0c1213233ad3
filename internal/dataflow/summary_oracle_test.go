package dataflow_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/dataflow"
	"cmm/internal/minim3"
	"cmm/internal/opt"
	"cmm/internal/paper"
	"cmm/internal/progen"
	"cmm/internal/syntax"
)

// This file keeps the name-keyed interprocedural summaries as the oracle
// for the slot-indexed call graph: refSummarize and refConsSummarize
// are the map-based fixpoints the summaries were first written as, and
// TestSummariesMatchReference holds Summarize and ConsSummarize to them
// field by field.

// refResolve is the by-name callee resolution the reference uses.
func refResolve(target syntax.Expr) (string, dataflow.CalleeKind) {
	if v, ok := target.(*syntax.VarExpr); ok {
		switch v.Ref {
		case syntax.RefProc:
			return v.Name, dataflow.CalleeProc
		case syntax.RefImport:
			return v.Name, dataflow.CalleeImport
		case syntax.RefCont:
			return v.Name, dataflow.CalleeCont
		}
	}
	return "", dataflow.CalleeUnknown
}

type refCallEdge struct {
	callee                   string
	catchesCut, catchesYield bool
}

// refSummarize is Summarize over name-keyed maps.
func refSummarize(prog *cfg.Program) map[string]*dataflow.Summary {
	procs := map[string]*dataflow.Summary{}
	calls := map[string][]refCallEdge{}
	jumps := map[string][]string{}
	for _, name := range prog.Order {
		sum := &dataflow.Summary{RetArities: map[int]bool{}}
		procs[name] = sum
		jumpsForeign, unknownJump := false, false
		for _, n := range prog.Graph(name).Nodes() {
			switch n.Kind {
			case cfg.KindExit:
				sum.RetArities[n.RetArity] = true
				if n.RetIndex == n.RetArity {
					sum.ReturnsNormally = true
				}
			case cfg.KindCutTo:
				if _, kind := refResolve(n.Callee); kind != dataflow.CalleeCont {
					sum.MayCut = true
				}
			case cfg.KindCall:
				if n.IsYield {
					sum.MayYield = true
					continue
				}
				callee, kind := refResolve(n.Callee)
				switch kind {
				case dataflow.CalleeProc:
					calls[name] = append(calls[name], refCallEdge{
						callee:       callee,
						catchesCut:   len(n.Bundle.Cuts) > 0 && !n.Bundle.Abort,
						catchesYield: len(n.Bundle.Unwinds) > 0 && !n.Bundle.Abort,
					})
				case dataflow.CalleeImport:
				default:
					sum.Incomplete = true
				}
			case cfg.KindJump:
				callee, kind := refResolve(n.Callee)
				switch kind {
				case dataflow.CalleeProc:
					jumps[name] = append(jumps[name], callee)
				case dataflow.CalleeImport:
					jumpsForeign = true
				default:
					unknownJump = true
					sum.ArityUnknown = true
					sum.Incomplete = true
				}
			}
		}
		if jumpsForeign {
			sum.RetArities[0] = true
			sum.ReturnsNormally = true
		}
		if unknownJump {
			sum.ReturnsNormally = true
		}
	}
	for changed := true; changed; {
		changed = false
		set := func(dst *bool, src bool) {
			if src && !*dst {
				*dst = true
				changed = true
			}
		}
		for _, name := range prog.Order {
			sum := procs[name]
			for _, e := range calls[name] {
				cs := procs[e.callee]
				set(&sum.MayCut, cs.MayCut && !e.catchesCut)
				set(&sum.MayYield, cs.MayYield && !e.catchesYield)
				set(&sum.Incomplete, cs.Incomplete)
			}
			for _, callee := range jumps[name] {
				cs := procs[callee]
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
	return procs
}

// refCons is ConsSummarize over name-keyed maps.
type refCons struct {
	procs map[string]*dataflow.ConsSummary
	reach map[string]map[string]bool
}

func refConsSummarize(prog *cfg.Program) *refCons {
	s := &refCons{procs: map[string]*dataflow.ConsSummary{}, reach: map[string]map[string]bool{}}
	edges := map[string][]string{}
	for _, name := range prog.Order {
		sum := &dataflow.ConsSummary{}
		s.procs[name] = sum
		seen := map[string]bool{}
		for _, n := range prog.Graph(name).Nodes() {
			switch n.Kind {
			case cfg.KindCutTo:
				if _, kind := refResolve(n.Callee); kind != dataflow.CalleeCont {
					sum.MayCut = true
				}
			case cfg.KindCall, cfg.KindJump:
				if n.IsYield {
					sum.MayYield = true
					continue
				}
				callee, kind := refResolve(n.Callee)
				switch kind {
				case dataflow.CalleeProc:
					if !seen[callee] {
						seen[callee] = true
						edges[name] = append(edges[name], callee)
					}
				case dataflow.CalleeImport:
				default:
					sum.Incomplete = true
				}
			}
		}
	}
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
		s.reach[name] = set
	}
	for _, name := range prog.Order {
		sum := s.procs[name]
		for q := range s.reach[name] {
			qs := s.procs[q]
			sum.MayCut = sum.MayCut || qs.MayCut
			sum.MayYield = sum.MayYield || qs.MayYield
			sum.Incomplete = sum.Incomplete || qs.Incomplete
		}
	}
	return s
}

// maxOver is the reference MaxOver: proc "" widens to every procedure,
// as does an incomplete closure.
func (s *refCons) maxOver(proc string, f func(string) int) int {
	set := s.reach[proc]
	if sum := s.procs[proc]; sum != nil && sum.Incomplete {
		set = nil
	}
	if set == nil {
		set = map[string]bool{}
		for name := range s.procs {
			set[name] = true
		}
	}
	m := 0
	for name := range set {
		m = max(m, f(name))
	}
	return m
}

// summaryCorpus is every program the oracle runs: the checked-in C--
// sources, the documentation examples, the paper's figures and
// workloads, game.m3 under each exception policy, and progen seeds
// 0–499.
func summaryCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := map[string]string{}
	var paths []string
	for _, pat := range []string{"../../testdata/*.cmm", "../../testdata/*/*.cmm", "../../examples/docs/*.cmm"} {
		ps, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	if len(paths) < 10 {
		t.Fatalf("found only %d .cmm files", len(paths))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corpus[path] = string(data)
	}
	for name, src := range map[string]string{
		"Figure1": paper.Figure1, "Section41": paper.Section41, "Section43Divu": paper.Section43Divu,
		"Fig2Cut": paper.Fig2Cut, "Fig2RuntimeCut": paper.Fig2RuntimeCut, "Fig2RuntimeUnwind": paper.Fig2RuntimeUnwind,
		"Fig2NativeUnwind": paper.Fig2NativeUnwind, "Fig2CPS": paper.Fig2CPS, "Fig34": paper.Fig34,
		"Figure8": paper.Figure8Globals + "import getMove, makeMove; bits32 tryAMoveDesc;" + paper.Figure8,
		"Figure10": paper.Figure8Globals + paper.Figure10Globals + "import getMove, makeMove; bits32 BadMove; bits32 NoMoreTiles;" +
			paper.Figure10 + paper.RaiseCutting,
		"CalleeSavesKernel": paper.CalleeSavesKernel, "CalleeSavesKernelCut": paper.CalleeSavesKernelCut,
		"OptHandlerRich": paper.OptHandlerRich,
	} {
		corpus["paper "+name] = src
	}
	for _, w := range paper.CycleWorkloads {
		corpus["workload "+w.Name] = w.Src
	}
	game, err := os.ReadFile("../../testdata/game.m3")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range minim3.Policies {
		src, err := minim3.CompileWith(string(game), pol, minim3.CompileOptions{Prune: true})
		if err != nil {
			t.Fatalf("game.m3 %s: %v", pol, err)
		}
		corpus["game.m3 "+pol.String()] = src
	}
	for seed := int64(0); seed < 500; seed++ {
		corpus[fmt.Sprintf("progen %d", seed)] = progen.Generate(seed, progen.Config{Exceptions: seed%2 == 0})
	}
	return corpus
}

// compareSummaries holds every field of every procedure's Summary and
// ConsSummary, the reachability closure and MaxOver, to the reference.
func compareSummaries(t *testing.T, where string, prog *cfg.Program) {
	t.Helper()
	cg := dataflow.NewCallGraph(prog)
	sums := cg.Summarize()
	cons := cg.ConsSummarize()
	refSums := refSummarize(prog)
	ref := refConsSummarize(prog)
	if len(sums) != len(prog.Order) || len(cons.Procs) != len(prog.Order) || len(cons.Reach) != len(prog.Order) {
		t.Fatalf("%s: %d summaries, %d conservative, %d closures for %d procedures",
			where, len(sums), len(cons.Procs), len(cons.Reach), len(prog.Order))
	}
	// A weight per procedure, distinct so that any difference in the
	// folded set shows in the maximum.
	weight := func(slot int) int { return (slot*37+11)%101 + 1 }
	slotOf := map[string]int{}
	for i, name := range prog.Order {
		slotOf[name] = i
	}
	byName := func(name string) int { return weight(slotOf[name]) }
	for i, name := range prog.Order {
		if !reflect.DeepEqual(sums[i], *refSums[name]) {
			t.Errorf("%s: %s: Summary %+v, reference %+v", where, name, sums[i], *refSums[name])
		}
		if cons.Procs[i] != *ref.procs[name] {
			t.Errorf("%s: %s: ConsSummary %+v, reference %+v", where, name, cons.Procs[i], *ref.procs[name])
		}
		for j, q := range prog.Order {
			if cons.Reach[i].Has(j) != ref.reach[name][q] {
				t.Errorf("%s: Reach(%s) has %s = %v, reference %v", where, name, q, cons.Reach[i].Has(j), ref.reach[name][q])
			}
		}
		if got, want := cons.MaxOver(i, weight), ref.maxOver(name, byName); got != want {
			t.Errorf("%s: MaxOver(%s) = %d, reference %d", where, name, got, want)
		}
	}
	if got, want := cons.MaxAll(weight), ref.maxOver("", byName); got != want {
		t.Errorf("%s: MaxAll = %d, reference %d", where, got, want)
	}
}

// TestSummariesMatchReference: the slot-indexed call graph's summaries
// equal the name-keyed reference on every procedure of the corpus,
// before and after the -O2 IR passes (interproc, then the scalar
// optimizer).
func TestSummariesMatchReference(t *testing.T) {
	for name, src := range summaryCorpus(t) {
		prog := buildProgram(t, name, src)
		compareSummaries(t, name, prog)
		opt.Interproc(prog)
		for _, g := range prog.Procs {
			opt.Optimize(g, opt.Options{})
		}
		compareSummaries(t, name+" -O2", prog)
	}
}
