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

// semRun runs p0(arg) on the abstract machine. Generated programs
// terminate and handle what they raise, so any error, the step cap
// included, fails the test.
func semRun(t *testing.T, p *cfg.Program, arg uint64) uint64 {
	t.Helper()
	m, err := sem.New(p, sem.WithMaxSteps(3_000_000))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := m.Run("p0", arg)
	if err != nil {
		t.Fatalf("sem p0(%d): %v", arg, err)
	}
	if len(vs) != 1 {
		t.Fatalf("p0 returned %d values", len(vs))
	}
	return vs[0].Bits
}

// vmRun compiles p with opts and runs p0(arg) on a fresh instance
// (generated programs mutate globals); any trap fails the test.
func vmRun(t *testing.T, p *cfg.Program, opts codegen.Options, arg uint64) uint64 {
	t.Helper()
	cp, err := codegen.Compile(p, opts)
	if err != nil {
		t.Fatalf("generated program does not compile: %v", err)
	}
	inst, err := vm.NewInstance(cp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Run("p0", arg)
	if err != nil {
		t.Fatalf("vm p0(%d): %v", arg, err)
	}
	return res[0]
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
				ref := semRun(t, p1, arg)
				got := vmRun(t, p2, codegen.Options{}, arg)
				if ref != got {
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
				opt.Optimize(optd.Graphs[name], opt.Options{})
			}
			for _, arg := range []uint64{0, 3, 50} {
				if a, b := semRun(t, ref, arg), semRun(t, optd, arg); a != b {
					t.Fatalf("seed %d exc=%v arg=%d: reference %d != optimized %d\n%s",
						seed, exc, arg, a, b, src)
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
			opt.Optimize(optd.Graphs[name], opt.Options{})
		}
		for _, arg := range []uint64{2, 9} {
			if a, b := semRun(t, ref, arg), vmRun(t, optd, codegen.Options{}, arg); a != b {
				t.Fatalf("seed %d arg=%d: sem %d != optimized+compiled %d\n%s",
					seed, arg, a, b, src)
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
	backendAgrees(t, 200, codegen.Options{TestAndBranch: true})
}

// TestNoCalleeSavesBackendAgrees: the callee-saves ablation backend
// computes the same results.
func TestNoCalleeSavesBackendAgrees(t *testing.T) {
	backendAgrees(t, 300, codegen.Options{DisableCalleeSaves: true})
}

// backendAgrees compares the abstract machine with code compiled under
// opts on 20 generated programs from seed lo.
func backendAgrees(t *testing.T, lo int64, opts codegen.Options) {
	for seed := lo; seed < lo+20; seed++ {
		src := Generate(seed, Config{Exceptions: true})
		p1 := build(t, src)
		p2 := build(t, src)
		for _, arg := range []uint64{1, 8} {
			if ref, got := semRun(t, p1, arg), vmRun(t, p2, opts, arg); ref != got {
				t.Fatalf("seed %d arg %d: %d != %d\n%s", seed, arg, got, ref, src)
			}
		}
	}
}

// TestDivergingHitsCaps: Diverging, the one program that never returns,
// ends in sem's step cap and in the VM's instruction budget, the limits
// that turn a looping generated program into a test failure instead of
// a hang.
func TestDivergingHitsCaps(t *testing.T) {
	m, err := sem.New(build(t, Diverging), sem.WithMaxSteps(100_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("p0", 7); err == nil || !strings.Contains(err.Error(), "exceeded 100000 steps") {
		t.Errorf("sem: got %v, want the step cap", err)
	}
	cp, err := codegen.Compile(build(t, Diverging), codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := vm.NewInstance(cp)
	if err != nil {
		t.Fatal(err)
	}
	inst.M.MaxInstrs = 100_000
	if _, err := inst.Run("p0", 7); err == nil || !strings.Contains(err.Error(), "instruction budget exceeded") {
		t.Errorf("vm: got %v, want the instruction budget trap", err)
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
