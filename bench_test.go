// Benchmark harness: one benchmark per figure, table, and quantified
// cost claim in the paper's evaluation, per the experiment index in
// DESIGN.md. Wall-clock numbers measure the simulator, not the paper's
// hardware; the headline metric is simulated "cycles/op" (and where
// relevant instrs/op, loads+stores/op, or words of code), whose SHAPE is
// what reproduces the paper. Results are recorded in EXPERIMENTS.md.
package cmm_test

import (
	"fmt"
	"testing"

	"cmm"
	"cmm/internal/minim3"
	"cmm/internal/paper"
)

// benchMachine builds a compiled machine once.
func benchMachine(b *testing.B, src string, cc cmm.CompileConfig, opts ...cmm.RunOption) *cmm.Machine {
	b.Helper()
	mod, err := cmm.Load(src)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := mod.Native(cc, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return mach
}

// runSim runs proc b.N times and reports simulated cycles and
// instructions per operation.
func runSim(b *testing.B, mach *cmm.Machine, check func(res []uint64) error, proc string, args ...uint64) {
	b.Helper()
	mach.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mach.Run(proc, args...)
		if err != nil {
			b.Fatal(err)
		}
		if check != nil {
			if err := check(res); err != nil {
				b.Fatal(err)
			}
		}
	}
	s := mach.Stats()
	b.ReportMetric(float64(s.Cycles)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(s.Instrs)/float64(b.N), "instrs/op")
	b.ReportMetric(float64(s.Loads+s.Stores)/float64(b.N), "mem/op")
	// Host throughput: how fast the simulator retires simulated
	// instructions. Engine work changes this and ONLY this.
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(s.Instrs)/secs, "simInstrs/sec")
	}
}

// --- Figure 1: the sum-and-product procedures ---

func benchFigure1(b *testing.B, proc string) {
	mach := benchMachine(b, paper.Figure1, cmm.CompileConfig{})
	runSim(b, mach, func(res []uint64) error {
		if res[0] != 210 {
			return fmt.Errorf("sum = %d", res[0])
		}
		return nil
	}, proc, 20)
}

func BenchmarkFigure1_Sp1(b *testing.B) { benchFigure1(b, "sp1") }
func BenchmarkFigure1_Sp2(b *testing.B) { benchFigure1(b, "sp2") }
func BenchmarkFigure1_Sp3(b *testing.B) { benchFigure1(b, "sp3") }

// --- Figure 2: the 2x2 design space of control transfer, plus CPS ---
//
// One scenario: build a stack of depth d, raise back to a handler at the
// bottom. Cutting mechanisms are constant-time in d; unwinding
// mechanisms pay per frame.

// The five mechanism programs live in internal/paper (fig2.go) so the
// observability golden tests and the EXPERIMENTS.md tables share them.
const (
	fig2CutSrc           = paper.Fig2Cut
	fig2RuntimeCutSrc    = paper.Fig2RuntimeCut
	fig2RuntimeUnwindSrc = paper.Fig2RuntimeUnwind
	fig2NativeUnwindSrc  = paper.Fig2NativeUnwind
	fig2CPSSrc           = paper.Fig2CPS
)

func benchFigure2(b *testing.B, src string, d cmm.Dispatcher) {
	for _, depth := range []uint64{4, 32, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var opts []cmm.RunOption
			if d != nil {
				opts = append(opts, cmm.WithDispatcher(d))
			}
			mach := benchMachine(b, src, cmm.CompileConfig{}, opts...)
			runSim(b, mach, func(res []uint64) error {
				if res[0] != 42 {
					return fmt.Errorf("got %d", res[0])
				}
				return nil
			}, "f", depth)
		})
	}
}

func BenchmarkFigure2_CutTo(b *testing.B) { benchFigure2(b, fig2CutSrc, nil) }
func BenchmarkFigure2_SetCutToCont(b *testing.B) {
	benchFigure2(b, fig2RuntimeCutSrc, cmm.NewRegisterDispatcher("handler"))
}
func BenchmarkFigure2_SetUnwindCont(b *testing.B) {
	benchFigure2(b, fig2RuntimeUnwindSrc, cmm.NewUnwindDispatcher())
}
func BenchmarkFigure2_ReturnMN(b *testing.B) { benchFigure2(b, fig2NativeUnwindSrc, nil) }
func BenchmarkFigure2_CPS(b *testing.B)      { benchFigure2(b, fig2CPSSrc, nil) }

// --- Figures 3/4: branch-table vs test-and-branch alternate returns ---
//
// The normal case dominates: g returns normally in a loop. The
// branch-table method has zero dynamic overhead; test-and-branch pays a
// compare per alternate on every return. The table's price is space:
// words per call site, reported as code-size metrics.

const fig34Src = paper.Fig34

func benchFig34(b *testing.B, testAndBranch bool) {
	mach := benchMachine(b, fig34Src, cmm.CompileConfig{TestAndBranch: testAndBranch})
	b.ReportMetric(float64(mach.CodeSize("f")), "callerwords")
	b.ReportMetric(float64(mach.CodeSize("g")), "calleewords")
	runSim(b, mach, nil, "f", 1000)
}

func BenchmarkFig34_BranchTable(b *testing.B)   { benchFig34(b, false) }
func BenchmarkFig34_TestAndBranch(b *testing.B) { benchFig34(b, true) }

// --- §2 cost claim: setjmp buffer sizes vs the native 2-pointer cut ---
//
// Entering a handler scope under setjmp/longjmp saves a jmp_buf: 6
// pointers on Pentium/Linux, 19 on SPARC/Solaris, 84 on Alpha/OSF. A
// native-code stack cutter saves 2. The benchmark measures scope ENTRY
// cost; no exception is ever raised.

// Both variants enter a handler scope (a procedure that protects one
// call) per loop iteration. Under setjmp the scope saves a jmp_buf of N
// words before the call; under native cutting the scope's prologue
// materializes its continuation as 2 words. Both compile without
// callee-saves registers, the configuration the paper says suits stack
// cutting ("may be best suited to implementations that use no
// callee-saves registers", §2 — Objective CAML's choice), so the only
// difference is the buffer size.
func setjmpSrc(words int) string { return paper.SetjmpSrc(words) }

const nativeCutScopeSrc = `
enter(bits32 n, bits32 buf) {
    bits32 i, r;
    i = 0; r = 0;
loop:
    if i == n { return (r); }
    r = scope(i) also aborts;
    i = i + 1;
    goto loop;
}
scope(bits32 x) {
    bits32 r;
    r = leaf(x) also cuts to k;
    return (r);
continuation k(r):
    return (r);
}
leaf(bits32 x) { return (x); }
`

func benchSetjmp(b *testing.B, words int) {
	mach := benchMachine(b, setjmpSrc(words), cmm.CompileConfig{NoCalleeSaves: true})
	runSim(b, mach, nil, "enter", 100, 0x10000)
}

func BenchmarkSetjmp_Pentium6(b *testing.B) { benchSetjmp(b, 6) }
func BenchmarkSetjmp_Sparc19(b *testing.B)  { benchSetjmp(b, 19) }
func BenchmarkSetjmp_Alpha84(b *testing.B)  { benchSetjmp(b, 84) }

func BenchmarkNativeCut2(b *testing.B) {
	mach := benchMachine(b, nativeCutScopeSrc, cmm.CompileConfig{NoCalleeSaves: true})
	runSim(b, mach, nil, "enter", 100, 0)
}

// --- §4.2: callee-saves registers across calls ---
//
// A register-pressure kernel keeps four values live across a call in a
// loop. With callee-saves registers the values stay in registers; with
// the bank disabled (or killed by also-cuts-to edges) they live in the
// frame, adding memory traffic on every iteration.

// The kernel sources live in internal/paper (workloads.go) so the
// -O0/-O2 golden suite and EXPERIMENTS.md's -O0 vs -O2 table share them.
const calleeSavesSrc = paper.CalleeSavesKernel

// calleeSavesCutSrc is the same kernel, but the call can cut to a local
// handler: the cut edge kills callee-saves registers, forcing a..d into
// the frame (§4.2's "penalty... paid regardless of whether the
// continuation is used").
const calleeSavesCutSrc = paper.CalleeSavesKernelCut

func BenchmarkCalleeSaves_Used(b *testing.B) {
	mach := benchMachine(b, calleeSavesSrc, cmm.CompileConfig{})
	runSim(b, mach, nil, "kernel", 200)
}

func BenchmarkCalleeSaves_Disabled(b *testing.B) {
	mach := benchMachine(b, calleeSavesSrc, cmm.CompileConfig{NoCalleeSaves: true})
	runSim(b, mach, nil, "kernel", 200)
}

func BenchmarkCalleeSaves_KilledByCutEdges(b *testing.B) {
	mach := benchMachine(b, calleeSavesCutSrc, cmm.CompileConfig{})
	runSim(b, mach, nil, "kernel", 200)
}

// --- §4.3: fast-but-dangerous vs slow-but-solid primitives ---

const divSrc = `
export fast, solid;
fast(bits32 n, bits32 d) {
    bits32 i, r;
    i = 0; r = 0;
loop:
    if i == n { return (r); }
    r = r + %divu(i + 1, d);
    i = i + 1;
    goto loop;
}
solid(bits32 n, bits32 d) {
    bits32 i, r, q;
    i = 0; r = 0;
loop:
    if i == n { return (r); }
    q = %%divu(i + 1, d) also aborts;
    r = r + q;
    i = i + 1;
    goto loop;
}
`

func BenchmarkDiv_Fast(b *testing.B) {
	mach := benchMachine(b, divSrc, cmm.CompileConfig{})
	runSim(b, mach, nil, "fast", 200, 3)
}

func BenchmarkDiv_Solid(b *testing.B) {
	mach := benchMachine(b, divSrc, cmm.CompileConfig{})
	runSim(b, mach, nil, "solid", 200, 3)
}

// --- §6: optimization with exception edges ---
//
// The same handler-rich program, optimized and not. The paper's point is
// qualitative (standard optimizations stay CORRECT with the edges, so
// they can be applied at all); the measurable effect is the usual win
// from running them.

const optSrc = paper.OptHandlerRich

func BenchmarkOpt_WithEdges(b *testing.B) {
	mod, err := cmm.Load(optSrc)
	if err != nil {
		b.Fatal(err)
	}
	mod.Optimize()
	mach, err := mod.Native(cmm.CompileConfig{})
	if err != nil {
		b.Fatal(err)
	}
	runSim(b, mach, nil, "f", 100)
}

func BenchmarkOpt_None(b *testing.B) {
	mach := benchMachine(b, optSrc, cmm.CompileConfig{})
	runSim(b, mach, nil, "f", 100)
}

// BenchmarkOpt_O2 adds the summary-driven layer on top of the scalar
// passes: handler edges at quiet call sites pruned, the orphaned
// continuation dropped, g's frame elided. Tracked against the golden in
// testdata/bench/opt_handler_rich.golden.
func BenchmarkOpt_O2(b *testing.B) {
	mod, err := cmm.Load(optSrc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mod.ApplyOpt(2); err != nil {
		b.Fatal(err)
	}
	mach, err := mod.Native(cmm.CompileConfig{Opt: 2})
	if err != nil {
		b.Fatal(err)
	}
	runSim(b, mach, nil, "f", 100)
}

// --- Figures 7/8/9/10: the Modula-3 game under each policy ---
//
// TryAMove with a configurable raise frequency. Handler-scope entry
// happens every round; raises happen every `period` rounds (0 = never).
// Cutting pays per scope entry, unwinding pays per raise: sweeping the
// frequency exposes the crossover the paper's trade-off describes.

const gameM3 = `
var next;
var movesTried;
exception BadMove;
exception NoMoreTiles;
proc getMove(which, period) {
    if period > 0 {
        if which % period == 1 { raise BadMove(which); }
        if which % period == 2 { raise NoMoreTiles; }
    }
    return which * 2;
}
proc makeMove(m) { return m + 1; }
proc tryAMove(which, period) {
    try {
        makeMove(getMove(which, period));
        next = next + 1;
        if next > 3 { next = 0; }
    } except BadMove(why) {
        next = 1000 + why;
    } except NoMoreTiles {
        next = 2000;
    }
    movesTried = movesTried + 1;
    return next;
}
proc playGame(rounds, period) {
    var i;
    var acc;
    i = 0;
    acc = 0;
    while i < rounds {
        acc = acc + tryAMove(i, period);
        i = i + 1;
    }
    return acc;
}
`

func benchTryAMove(b *testing.B, policy minim3.Policy, period uint64) {
	r, err := minim3.NewRunner(gameM3, policy, minim3.BackendVM)
	if err != nil {
		b.Fatal(err)
	}
	r.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Results vary run to run because the game's globals persist
		// across calls; correctness is covered by the equivalence tests.
		status, _, err := r.Call("playGame", 100, period)
		if err != nil {
			b.Fatal(err)
		}
		if status != 0 {
			b.Fatalf("escaped exception %d", status)
		}
	}
	s := r.Stats()
	b.ReportMetric(float64(s.Cycles)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(s.Yields)/float64(b.N), "yields/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(s.Instrs)/secs, "simInstrs/sec")
	}
}

func benchPolicySweep(b *testing.B, policy minim3.Policy) {
	for _, period := range []uint64{0, 50, 13, 3} {
		name := "never"
		if period > 0 {
			name = fmt.Sprintf("every%d", period)
		}
		b.Run("raise="+name, func(b *testing.B) { benchTryAMove(b, policy, period) })
	}
}

func BenchmarkTryAMove_Cut(b *testing.B)    { benchPolicySweep(b, minim3.PolicyCutting) }
func BenchmarkTryAMove_Unwind(b *testing.B) { benchPolicySweep(b, minim3.PolicyUnwinding) }
func BenchmarkTryAMove_Native(b *testing.B) { benchPolicySweep(b, minim3.PolicyNativeUnwind) }

// --- Annotation inference (Hennessy 1981, cited in §7) ---
//
// With pruning, calls to provably non-raising procedures carry no
// exceptional annotations: smaller call sites, no abnormal-return
// continuations, full callee-saves freedom.

const pruneM3 = `
exception E;
proc pure(x) { return x * 2 + 1; }
proc hot(n) {
    var s;
    var i;
    s = 0;
    i = 0;
    while i < n {
        s = s + pure(i);
        i = i + 1;
    }
    return s;
}
proc mayFail(x) {
    if x == 0 { raise E(1); }
    return x;
}
proc driver(n) {
    var r;
    try {
        r = hot(n) + mayFail(n);
    } except E(v) {
        r = v;
    }
    return r;
}
`

func benchPruning(b *testing.B, prune bool) {
	r, err := minim3.NewRunnerWith(pruneM3, minim3.PolicyNativeUnwind, minim3.BackendVM,
		minim3.CompileOptions{Prune: prune})
	if err != nil {
		b.Fatal(err)
	}
	r.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, _, err := r.Call("driver", 100)
		if err != nil || status != 0 {
			b.Fatalf("status=%d err=%v", status, err)
		}
	}
	s := r.Stats()
	b.ReportMetric(float64(s.Cycles)/float64(b.N), "cycles/op")
}

func BenchmarkAnnotationInference_Off(b *testing.B) { benchPruning(b, false) }
func BenchmarkAnnotationInference_On(b *testing.B)  { benchPruning(b, true) }

// --- Engine comparison: the same figures on the reference engine ---
//
// The *_RefEngine benchmarks rerun three interpreter-bound figures on
// the one-Step()-per-instruction reference engine. Simulated metrics
// (cycles/op, instrs/op, mem/op) are bit-identical to the default
// native engine — asserted by TestBenchFiguresEngineParity — so
// the only difference is host ns/op and simInstrs/sec.

func BenchmarkFigure1_Sp3_RefEngine(b *testing.B) {
	mach := benchMachine(b, paper.Figure1, cmm.CompileConfig{}, cmm.WithEngine(cmm.EngineRef))
	runSim(b, mach, nil, "sp3", 20)
}

func BenchmarkFig34_BranchTable_RefEngine(b *testing.B) {
	mach := benchMachine(b, fig34Src, cmm.CompileConfig{}, cmm.WithEngine(cmm.EngineRef))
	runSim(b, mach, nil, "f", 1000)
}

func BenchmarkFigure2_CutTo_RefEngine(b *testing.B) {
	mach := benchMachine(b, fig2CutSrc, cmm.CompileConfig{}, cmm.WithEngine(cmm.EngineRef))
	runSim(b, mach, func(res []uint64) error {
		if res[0] != 42 {
			return fmt.Errorf("got %d", res[0])
		}
		return nil
	}, "f", 256)
}

// The *_NativeEngine benchmarks rerun the same figures on the
// host-native closure-chain tier. As with *_RefEngine, simulated
// metrics are bit-identical; only host throughput moves.

func BenchmarkFigure1_Sp3_NativeEngine(b *testing.B) {
	mach := benchMachine(b, paper.Figure1, cmm.CompileConfig{}, cmm.WithEngine(cmm.EngineNative))
	runSim(b, mach, nil, "sp3", 20)
}

func BenchmarkFig34_BranchTable_NativeEngine(b *testing.B) {
	mach := benchMachine(b, fig34Src, cmm.CompileConfig{}, cmm.WithEngine(cmm.EngineNative))
	runSim(b, mach, nil, "f", 1000)
}

func BenchmarkFigure2_CutTo_NativeEngine(b *testing.B) {
	mach := benchMachine(b, fig2CutSrc, cmm.CompileConfig{}, cmm.WithEngine(cmm.EngineNative))
	runSim(b, mach, func(res []uint64) error {
		if res[0] != 42 {
			return fmt.Errorf("got %d", res[0])
		}
		return nil
	}, "f", 256)
}

// --- The interpreter itself (the §5 semantics), for completeness ---

func BenchmarkInterpFigure1(b *testing.B) {
	mod, err := cmm.Load(paper.Figure1)
	if err != nil {
		b.Fatal(err)
	}
	in, err := mod.Interp()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Run("sp3", 20); err != nil {
			b.Fatal(err)
		}
	}
}
