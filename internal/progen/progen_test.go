package progen

import (
	"regexp"
	"strings"
	"testing"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/codegen"
	"cmm/internal/dataflow"
	"cmm/internal/opt"
	"cmm/internal/sem"
	"cmm/internal/syntax"
	"cmm/internal/vm"
)

func build(t *testing.T, src string) *cfg.Program {
	t.Helper()
	parsed, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	info, err := check.Check(parsed)
	if err != nil {
		t.Fatalf("generated program does not check: %v\n%s", err, src)
	}
	p, err := cfg.Build(parsed, info)
	if err != nil {
		t.Fatalf("generated program does not build: %v\n%s", err, src)
	}
	return p
}

func semRun(t *testing.T, p *cfg.Program, arg uint64) (uint64, bool) {
	t.Helper()
	m, err := sem.New(p, sem.WithMaxSteps(3_000_000))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := m.Run("p0", arg)
	if err != nil {
		return 0, false
	}
	if len(vs) != 1 {
		t.Fatalf("p0 returned %d values", len(vs))
	}
	return vs[0].Bits, true
}

func vmRun(t *testing.T, p *cfg.Program, arg uint64) (uint64, bool) {
	t.Helper()
	cp, err := codegen.Compile(p, codegen.Options{})
	if err != nil {
		t.Fatalf("generated program does not compile: %v", err)
	}
	inst, err := vm.NewInstance(cp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Run("p0", arg)
	if err != nil {
		return 0, false
	}
	return res[0], true
}

// TestDifferentialSemVsCompiled: for many random programs and inputs,
// the operational semantics and the compiled machine agree.
func TestDifferentialSemVsCompiled(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		for _, exc := range []bool{false, true} {
			src := Generate(seed, Config{Exceptions: exc})
			p1 := build(t, src)
			p2 := build(t, src)
			for _, arg := range []uint64{0, 1, 7, 100} {
				ref, okRef := semRun(t, p1, arg)
				got, okGot := vmRun(t, p2, arg)
				if okRef != okGot {
					t.Fatalf("seed %d exc=%v arg=%d: sem ok=%v but vm ok=%v\n%s",
						seed, exc, arg, okRef, okGot, src)
				}
				if okRef && ref != got {
					t.Fatalf("seed %d exc=%v arg=%d: sem %d != vm %d\n%s",
						seed, exc, arg, ref, got, src)
				}
			}
		}
	}
}

// TestOptimizationPreservesBehavior: optimizing a random program never
// changes what the abstract machine computes.
func TestOptimizationPreservesBehavior(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		for _, exc := range []bool{false, true} {
			src := Generate(seed, Config{Exceptions: exc})
			ref := build(t, src)
			optd := build(t, src)
			for _, name := range optd.Order {
				opt.Optimize(optd.Graphs[name], optd.Info, opt.Options{})
			}
			for _, arg := range []uint64{0, 3, 50} {
				a, okA := semRun(t, ref, arg)
				b, okB := semRun(t, optd, arg)
				if okA != okB || (okA && a != b) {
					t.Fatalf("seed %d exc=%v arg=%d: reference (%d,%v) != optimized (%d,%v)\n%s",
						seed, exc, arg, a, okA, b, okB, src)
				}
			}
		}
	}
}

// TestOptimizedCompiledAgree: full pipeline — optimize, compile, and
// compare against the unoptimized semantics.
func TestOptimizedCompiledAgree(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		src := Generate(seed, Config{Exceptions: true})
		ref := build(t, src)
		optd := build(t, src)
		for _, name := range optd.Order {
			opt.Optimize(optd.Graphs[name], optd.Info, opt.Options{})
		}
		for _, arg := range []uint64{2, 9} {
			a, okA := semRun(t, ref, arg)
			b, okB := vmRun(t, optd, arg)
			if okA != okB || (okA && a != b) {
				t.Fatalf("seed %d arg=%d: sem (%d,%v) != optimized+compiled (%d,%v)\n%s",
					seed, arg, a, okA, b, okB, src)
			}
		}
	}
}

// TestSSAInvariantsOnRandomPrograms: SSA construction is valid on every
// generated graph.
func TestSSAInvariantsOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		src := Generate(seed, Config{Exceptions: seed%2 == 0})
		p := build(t, src)
		for _, name := range p.Order {
			s := dataflow.BuildSSA(p.Graphs[name])
			if err := s.Verify(); err != nil {
				t.Fatalf("seed %d, proc %s: %v\n%s", seed, name, err, src)
			}
		}
	}
}

// TestGeneratorDeterminism: the same seed yields the same program.
func TestGeneratorDeterminism(t *testing.T) {
	a := Generate(42, Config{Exceptions: true})
	b := Generate(42, Config{Exceptions: true})
	if a != b {
		t.Fatal("generator is not deterministic")
	}
	c := Generate(43, Config{Exceptions: true})
	if a == c {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestTestAndBranchBackendAgrees: the alternate-return ablation backend
// computes the same results.
func TestTestAndBranchBackendAgrees(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		src := Generate(seed, Config{Exceptions: true})
		p1 := build(t, src)
		p2 := build(t, src)
		cp, err := codegen.Compile(p2, codegen.Options{TestAndBranch: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, arg := range []uint64{1, 8} {
			// Fresh machines per argument: generated programs mutate
			// globals, and the reference machine is fresh per run too.
			inst, err := vm.NewInstance(cp)
			if err != nil {
				t.Fatal(err)
			}
			ref, okRef := semRun(t, p1, arg)
			res, err := inst.Run("p0", arg)
			if okRef != (err == nil) {
				t.Fatalf("seed %d arg %d: sem ok=%v vm err=%v\n%s", seed, arg, okRef, err, src)
			}
			if okRef && res[0] != ref {
				t.Fatalf("seed %d arg %d: %d != %d\n%s", seed, arg, res[0], ref, src)
			}
		}
	}
}

// TestNoCalleeSavesBackendAgrees: the callee-saves ablation backend
// computes the same results.
func TestNoCalleeSavesBackendAgrees(t *testing.T) {
	for seed := int64(300); seed < 320; seed++ {
		src := Generate(seed, Config{Exceptions: true})
		p1 := build(t, src)
		p2 := build(t, src)
		cp, err := codegen.Compile(p2, codegen.Options{DisableCalleeSaves: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, arg := range []uint64{1, 8} {
			inst, err := vm.NewInstance(cp)
			if err != nil {
				t.Fatal(err)
			}
			ref, okRef := semRun(t, p1, arg)
			res, err := inst.Run("p0", arg)
			if okRef != (err == nil) {
				t.Fatalf("seed %d arg %d: sem ok=%v vm err=%v\n%s", seed, arg, okRef, err, src)
			}
			if okRef && res[0] != ref {
				t.Fatalf("seed %d arg %d: %d != %d\n%s", seed, arg, res[0], ref, src)
			}
		}
	}
}

// TestPrettyPrintRoundTrip: parsing a generated program, printing it, and
// reparsing yields a stable rendering (printer/parser agreement).
func TestPrettyPrintRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		src := Generate(seed, Config{Exceptions: seed%2 == 0})
		p1, err := syntax.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		text1 := p1.String()
		p2, err := syntax.Parse(text1)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, text1)
		}
		if text2 := p2.String(); text1 != text2 {
			t.Fatalf("seed %d: unstable rendering", seed)
		}
	}
}

var (
	counterAssign = regexp.MustCompile(`^\s*(c\d+_\d+) = (.*);$`)
	counterInit   = regexp.MustCompile(`^[1-4]$`)
)

// TestLoopCountersOnlyDecremented: a loop counter is assigned only by
// its initialisation and by its own decrement, so no statement in the
// loop body can keep the loop running.
func TestLoopCountersOnlyDecremented(t *testing.T) {
	loops := 0
	for seed := int64(0); seed < 500; seed++ {
		for _, cfg := range []Config{{}, {Exceptions: true}, {Exceptions: true, Procs: 5, MaxDepth: 3}} {
			for _, line := range strings.Split(Generate(seed, cfg), "\n") {
				m := counterAssign.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				if counterInit.MatchString(m[2]) {
					loops++
				} else if m[2] != m[1]+" - 1" {
					t.Fatalf("seed %d %+v: loop counter assigned by %q", seed, cfg, strings.TrimSpace(line))
				}
			}
		}
	}
	if loops == 0 {
		t.Fatal("no generated program has a loop")
	}
}
