package cmm_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"cmm"
	"cmm/internal/obs"
	"cmm/internal/paper"
	"cmm/internal/progen"
)

// The -O2 correctness contract: optimization may change cycle counts
// but never observable behavior. This file enforces it three ways — a
// randomized differential sweep (results, traps, and observable event
// streams identical at -O0 and -O2), ref-vs-native engine parity of the
// optimized code, and the Hennessy-1981 ablation composed with the
// interprocedural pass.

// sweepSeeds returns the inclusive seed range of the randomized
// sweeps: 0..39, or 0..7 under -short.
func sweepSeeds() (int64, int64) {
	if testing.Short() {
		return 0, 7
	}
	return 0, 39
}

// obsSignature reduces an event trace to its optimization-stable core:
// the kind sequence, plus the payloads whose values the language
// semantics fix (yield arguments, unwind-walk counts, descriptor
// indices, resume targets). Timestamps, PCs, and stack pointers shift
// legitimately when frames shrink, so they are excluded.
func obsSignature(trace []obs.Event) []string {
	var sig []string
	for _, ev := range trace {
		switch ev.Kind {
		case obs.KYield, obs.KUnwindStep, obs.KDescLookup, obs.KResumeUnwind, obs.KResumeReturn:
			sig = append(sig, fmt.Sprintf("%v a=%d", ev.Kind, ev.A))
		default:
			sig = append(sig, fmt.Sprintf("%v", ev.Kind))
		}
	}
	return sig
}

// runAtLevel compiles src fresh at the given -O level and runs proc
// under an observer, returning the results (nil on trap), the trap
// message, and the stable event signature.
func runAtLevel(t *testing.T, src string, level int, e cmm.Engine, proc string, args ...uint64) ([]uint64, string, []string) {
	t.Helper()
	mod, err := cmm.Load(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if level != 0 {
		if _, err := mod.ApplyOpt(level); err != nil {
			t.Fatalf("-O%d: %v", level, err)
		}
	}
	o := cmm.NewObserver()
	mach, err := mod.Native(cmm.CompileConfig{Opt: level}, cmm.WithObserver(o), cmm.WithEngine(e))
	if err != nil {
		t.Fatalf("-O%d compile: %v", level, err)
	}
	res, err := mach.Run(proc, args...)
	trap := ""
	if err != nil {
		trap = err.Error()
		res = nil
	}
	return res, trap, obsSignature(o.Trace)
}

// diffSignatures compares observable event streams. With
// prefixOnly (one side hit the instruction budget, so its stream is a
// truncation of the same execution), the shorter stream must be a
// prefix of the longer; otherwise the streams must match exactly.
func diffSignatures(t *testing.T, label string, o0, o2 []string, prefixOnly bool) {
	t.Helper()
	n := len(o0)
	if len(o2) < n {
		n = len(o2)
	}
	for i := 0; i < n; i++ {
		if o0[i] != o2[i] {
			t.Errorf("%s: observable event %d differs: -O0 %s, -O2 %s", label, i, o0[i], o2[i])
			return
		}
	}
	if !prefixOnly && len(o0) != len(o2) {
		t.Errorf("%s: observable event count differs: -O0 %d, -O2 %d", label, len(o0), len(o2))
	}
}

var trapPC = regexp.MustCompile(`pc=\d+`)

// normalizeTrap strips the trapping pc from a trap message: code layout
// moves under optimization, but the trap REASON may not.
func normalizeTrap(trap string) string { return trapPC.ReplaceAllString(trap, "pc=?") }

// TestOptLevelDifferentialSweep runs randomized progen programs —
// exceptions on and off, several inputs — at -O0 and -O2 and requires
// identical results, identical traps, and identical observable event
// streams. Each level runs on both engines (ref, the spec, and
// native), which must agree exactly with each other at that level.
func TestOptLevelDifferentialSweep(t *testing.T) {
	lo, hi := sweepSeeds()
	for seed := lo; seed <= hi; seed++ {
		for _, exc := range []bool{false, true} {
			src := progen.Generate(seed, progen.Config{Exceptions: exc})
			for _, arg := range []uint64{0, 7, 100} {
				label := fmt.Sprintf("seed=%d/exc=%v/arg=%d", seed, exc, arg)
				res0, trap0, sig0 := runAtLevel(t, src, 0, cmm.EngineRef, "p0", arg)
				res2, trap2, sig2 := runAtLevel(t, src, 2, cmm.EngineRef, "p0", arg)
				// Within one level the engines are bit-identical, so the
				// comparison is exact: same results, same trap text, same
				// full event stream.
				for _, lv := range []struct {
					level int
					res   []uint64
					trap  string
					sig   []string
				}{{0, res0, trap0, sig0}, {2, res2, trap2, sig2}} {
					rN, tN, sN := runAtLevel(t, src, lv.level, cmm.EngineNative, "p0", arg)
					nlabel := fmt.Sprintf("%s/-O%d/native", label, lv.level)
					if tN != lv.trap {
						t.Errorf("%s: trap mismatch vs ref: %q vs %q", nlabel, tN, lv.trap)
						continue
					}
					if fmt.Sprint(rN) != fmt.Sprint(lv.res) {
						t.Errorf("%s: result mismatch vs ref: %v vs %v", nlabel, rN, lv.res)
					}
					diffSignatures(t, nlabel, lv.sig, sN, false)
				}
				// A budget trap is a resource limit, not program
				// semantics: the optimized code retires fewer
				// instructions, so it truncates the same execution at a
				// different point (or completes where -O0 could not).
				// Event streams must still agree as prefixes.
				budget := strings.Contains(trap0, "instruction budget") ||
					strings.Contains(trap2, "instruction budget")
				if budget {
					diffSignatures(t, label, sig0, sig2, true)
					continue
				}
				if normalizeTrap(trap0) != normalizeTrap(trap2) {
					t.Errorf("%s: trap mismatch: -O0 %q, -O2 %q", label, trap0, trap2)
					continue
				}
				// p0 declares one result; registers past it are scratch
				// and legitimately hold frame addresses that move when
				// frames shrink.
				if trap0 == "" && res0[0] != res2[0] {
					t.Errorf("%s: result mismatch: -O0 %d, -O2 %d", label, res0[0], res2[0])
				}
				diffSignatures(t, label, sig0, sig2, false)
			}
		}
	}
}

// scaledArgs replaces each workload's golden arguments with sizes that
// retire 20k–3M simulated instructions per run (deep recursion, long
// loops) while staying inside the default 4 MiB memory, so engine
// parity is also checked well past the golden inputs.
var scaledArgs = map[string][]uint64{
	"figure1_sp1":            {5000},
	"figure1_sp2":            {5000},
	"figure1_sp3":            {5000},
	"fig2_cut_to":            {2048},
	"fig2_set_cut_to_cont":   {2048},
	"fig2_set_unwind_cont":   {2048},
	"fig2_return_mn":         {2048},
	"fig34_branch_table":     {100000},
	"fig34_test_and_branch":  {100000},
	"callee_saves_used":      {5000},
	"callee_saves_cut_edges": {5000},
	"opt_handler_rich":       {2000},
}

// TestOptLevelEngineParity runs every optimizer workload, dispatcher-
// driven ones included, at -O0 and -O2 and at both its golden and its
// scaled arguments on both engines: the results of three runs on one
// machine and every simulated cost counter must be bit-identical, so
// neither the optimization layer nor a run-time system can introduce an
// engine-dependent path.
func TestOptLevelEngineParity(t *testing.T) {
	for _, w := range paper.CycleWorkloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			scaled, ok := scaledArgs[w.Name]
			if !ok {
				t.Fatalf("no scaled arguments for %s", w.Name)
			}
			for _, level := range []int{0, 2} {
				for _, size := range []struct {
					name string
					args []uint64
				}{{"golden", w.Args}, {"scaled", scaled}} {
					t.Run(fmt.Sprintf("O%d/%s", level, size.name), func(t *testing.T) {
						cc := cmm.CompileConfig{
							TestAndBranch: w.TestAndBranch,
							NoCalleeSaves: w.NoCalleeSaves,
							Opt:           level,
						}
						compareEngineCase(t, w.Src, cc, w.Dispatcher, w.Proc, size.args...)
					})
				}
			}
		})
	}
}

// TestOptimizedModulesVetClean runs the §4 well-formedness verifier
// over the IR AFTER -O2 rewrote it: edge pruning and continuation
// removal must leave every remaining annotation and continuation
// well-formed, on the fixed workloads and on randomized programs.
func TestOptimizedModulesVetClean(t *testing.T) {
	check := func(label, src string) {
		t.Helper()
		mod, err := cmm.Load(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if _, err := mod.ApplyOpt(2); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ds := mod.Verify(false); ds.HasErrors() {
			t.Errorf("%s: -O2 IR has verifier errors:\n%s", label, ds)
		}
	}
	for _, w := range paper.CycleWorkloads {
		check(w.Name, w.Src)
	}
	for seed := int64(0); seed < 10; seed++ {
		for _, exc := range []bool{false, true} {
			src := progen.Generate(seed, progen.Config{Exceptions: exc})
			check(fmt.Sprintf("progen seed=%d exc=%v", seed, exc), src)
		}
	}
}

// bankExhaustSrc mirrors the internal/codegen layout regression: ten
// values live across a call overflow the eight-register callee-saves
// bank. Here we assert the spilled values survive the call at every -O
// level (the execution side of the bank-exhaustion fallback).
const bankExhaustSrc = `
f(bits32 n) {
    bits32 a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, r;
    a0 = 1; a1 = 2; a2 = 3; a3 = 4; a4 = 5;
    a5 = 6; a6 = 7; a7 = 8; a8 = 9; a9 = 10;
    r = g(n);
    return (r + a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9);
}
g(bits32 x) { return (x + 1); }
`

func TestBankExhaustionExecution(t *testing.T) {
	for _, level := range []int{0, 1, 2} {
		res, trap, _ := runAtLevel(t, bankExhaustSrc, level, cmm.EngineNative, "f", 5)
		if trap != "" {
			t.Fatalf("-O%d: %s", level, trap)
		}
		if res[0] != 61 {
			t.Errorf("-O%d: f(5) = %d, want 61", level, res[0])
		}
	}
}

// hennessySrc is the classic miscompilation from cmm_test.go's facade
// test: b's definition is dead only if the analysis cannot see the cut
// edge back to k.
const hennessySrc = `
f(bits32 a) {
    bits32 b, c;
    b = a + 1;
    c = g(k) also cuts to k;
    return (c);
continuation k:
    return (b);
}
g(bits32 kv) {
    cut to kv() also aborts;
}
`

// TestHennessyStillCaughtAtO2 composes the WithoutExceptionEdges
// ablation with the new interprocedural pass. The pass must refuse to
// quiet the call site (g really cuts), so sound -O2 keeps the handler
// working — and the ablation still reproduces the Hennessy-1981
// miscompilation on top of it, proving the interprocedural pass did not
// mask the experiment.
func TestHennessyStillCaughtAtO2(t *testing.T) {
	sound, err := cmm.Load(hennessySrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sound.ApplyOpt(2); err != nil {
		t.Fatal(err)
	}
	mach, err := sound.Native(cmm.CompileConfig{Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run("f", 41)
	if err != nil || len(res) == 0 || res[0] != 42 {
		t.Errorf("sound -O2: f(41) = %v (%v), want 42", res, err)
	}

	unsound, err := cmm.Load(hennessySrc)
	if err != nil {
		t.Fatal(err)
	}
	ip := unsound.OptimizeInterproc()
	if ip.SitesQuieted != 0 || ip.CutEdgesRemoved != 0 {
		t.Errorf("interproc wrongly quieted a cutting callee: %+v", ip)
	}
	unsound.OptimizeUnsoundWithoutExceptionEdges()
	in, err := unsound.Interp()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("f", 41); err == nil {
		t.Error("unsound ablation composed with -O2 should still break the handler")
	}
}
