// Engine parity over the paper's own benchmark programs: the acceptance
// criterion for the native engine is that every simulated figure —
// cycles/op, instrs/op, memory traffic — is bit-identical to the
// reference engine, so engine choice can never perturb the paper's
// numbers. Each case below is a benchmark source from bench_test.go run
// on both engines with identical inputs; the paper.CycleWorkloads
// sources run at -O0 and -O2 in TestOptLevelEngineParity instead.
package cmm_test

import (
	"fmt"
	"testing"

	"cmm"
	"cmm/internal/minim3"
)

// runEngineCase compiles src at cc (applying the -O level cc.Opt
// names), installs the run-time system the dispatcher spec names, and
// runs proc three times on one machine on engine e.
func runEngineCase(t *testing.T, src string, cc cmm.CompileConfig, e cmm.Engine,
	dispatcher string, proc string, args ...uint64) ([][]uint64, cmm.Stats) {
	t.Helper()
	mod, err := cmm.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Opt != 0 {
		if _, err := mod.ApplyOpt(cc.Opt); err != nil {
			t.Fatal(err)
		}
	}
	d, err := cmm.ParseDispatcher(dispatcher)
	if err != nil {
		t.Fatal(err)
	}
	opts := []cmm.RunOption{cmm.WithEngine(e)}
	if d != nil {
		opts = append(opts, cmm.WithDispatcher(d))
	}
	mach, err := mod.Native(cc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var results [][]uint64
	for i := 0; i < 3; i++ {
		res, err := mach.Run(proc, args...)
		if err != nil {
			t.Fatalf("%s%v on engine %d: %v", proc, args, e, err)
		}
		results = append(results, res)
	}
	return results, mach.Stats()
}

// compareEngineCase runs one case on both engines: every run's results
// and the accumulated simulated counters must be bit-identical.
func compareEngineCase(t *testing.T, src string, cc cmm.CompileConfig, dispatcher string, proc string, args ...uint64) {
	t.Helper()
	refRes, refStats := runEngineCase(t, src, cc, cmm.EngineRef, dispatcher, proc, args...)
	gotRes, gotStats := runEngineCase(t, src, cc, cmm.EngineNative, dispatcher, proc, args...)
	for i := range refRes {
		if fmt.Sprint(refRes[i]) != fmt.Sprint(gotRes[i]) {
			t.Fatalf("run %d: ref %v native %v", i, refRes[i], gotRes[i])
		}
	}
	if refStats != gotStats {
		t.Errorf("counter mismatch:\nref:    %+v\nnative: %+v", refStats, gotStats)
	}
}

// TestBenchFiguresEngineParity covers the benchmark sources that are not
// paper.CycleWorkloads (those run in TestOptLevelEngineParity).
func TestBenchFiguresEngineParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		cc   cmm.CompileConfig
		proc string
		args []uint64
	}{
		{"Figure2_CPS", fig2CPSSrc, cmm.CompileConfig{}, "f", []uint64{32}},
		{"Setjmp_Sparc19", setjmpSrc(19), cmm.CompileConfig{NoCalleeSaves: true}, "enter", []uint64{100, 0x10000}},
		{"NativeCut2", nativeCutScopeSrc, cmm.CompileConfig{NoCalleeSaves: true}, "enter", []uint64{100, 0}},
		{"Div_Fast", divSrc, cmm.CompileConfig{}, "fast", []uint64{200, 3}},
		{"Div_Solid", divSrc, cmm.CompileConfig{}, "solid", []uint64{200, 3}},
		{"Opt_None", optSrc, cmm.CompileConfig{}, "f", []uint64{100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compareEngineCase(t, tc.src, tc.cc, "", tc.proc, tc.args...)
		})
	}
}

// TestGameEngineParity runs the Modula-3 game under every exception
// policy and raise frequency on both engines: status, value, and all
// simulated counters must match, dispatcher callouts included.
func TestGameEngineParity(t *testing.T) {
	for _, policy := range minim3.Policies {
		for _, period := range []uint64{0, 13, 3} {
			t.Run(fmt.Sprintf("%v/period=%d", policy, period), func(t *testing.T) {
				run := func(e cmm.Engine) (status, value uint64, stats cmm.Stats) {
					r, err := minim3.NewRunner(gameM3, policy, minim3.BackendVM)
					if err != nil {
						t.Fatal(err)
					}
					r.SetEngine(e)
					for i := 0; i < 3; i++ {
						status, value, err = r.Call("playGame", 100, period)
						if err != nil {
							t.Fatal(err)
						}
					}
					return status, value, r.Stats()
				}
				rs, rv, rst := run(cmm.EngineRef)
				gs, gv, gst := run(cmm.EngineNative)
				if rs != gs || rv != gv {
					t.Errorf("result mismatch: ref (%d,%d) native (%d,%d)", rs, rv, gs, gv)
				}
				if rst != gst {
					t.Errorf("counter mismatch:\nref:    %+v\nnative: %+v", rst, gst)
				}
			})
		}
	}
}
