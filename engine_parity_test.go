// Engine parity over the paper's own benchmark programs: the acceptance
// criterion for the native engine is that every simulated figure —
// cycles/op, instrs/op, memory traffic — is bit-identical to the
// reference engine, so engine choice can never perturb the paper's
// numbers. Each case below is a benchmark source from bench_test.go run
// on both engines with identical inputs.
package cmm_test

import (
	"fmt"
	"testing"

	"cmm"
	"cmm/internal/minim3"
	"cmm/internal/paper"
)

func runEngineCase(t *testing.T, src string, cc cmm.CompileConfig, e cmm.Engine,
	disp func() cmm.Dispatcher, proc string, args ...uint64) ([][]uint64, cmm.Stats) {
	t.Helper()
	mod, err := cmm.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := []cmm.RunOption{cmm.WithEngine(e)}
	if disp != nil {
		opts = append(opts, cmm.WithDispatcher(disp()))
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

func TestBenchFiguresEngineParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		cc   cmm.CompileConfig
		disp func() cmm.Dispatcher
		proc string
		args []uint64
	}{
		{"Figure1_Sp1", paper.Figure1, cmm.CompileConfig{}, nil, "sp1", []uint64{20}},
		{"Figure1_Sp2", paper.Figure1, cmm.CompileConfig{}, nil, "sp2", []uint64{20}},
		{"Figure1_Sp3", paper.Figure1, cmm.CompileConfig{}, nil, "sp3", []uint64{20}},
		{"Figure2_CutTo", fig2CutSrc, cmm.CompileConfig{}, nil, "f", []uint64{256}},
		{"Figure2_SetCutToCont", fig2RuntimeCutSrc, cmm.CompileConfig{},
			func() cmm.Dispatcher { return cmm.NewRegisterDispatcher("handler") }, "f", []uint64{32}},
		{"Figure2_SetUnwindCont", fig2RuntimeUnwindSrc, cmm.CompileConfig{},
			func() cmm.Dispatcher { return cmm.NewUnwindDispatcher() }, "f", []uint64{32}},
		{"Figure2_ReturnMN", fig2NativeUnwindSrc, cmm.CompileConfig{}, nil, "f", []uint64{32}},
		{"Figure2_CPS", fig2CPSSrc, cmm.CompileConfig{}, nil, "f", []uint64{32}},
		{"Fig34_BranchTable", fig34Src, cmm.CompileConfig{}, nil, "f", []uint64{1000}},
		{"Fig34_TestAndBranch", fig34Src, cmm.CompileConfig{TestAndBranch: true}, nil, "f", []uint64{1000}},
		{"Setjmp_Sparc19", setjmpSrc(19), cmm.CompileConfig{NoCalleeSaves: true}, nil, "enter", []uint64{100, 0x10000}},
		{"NativeCut2", nativeCutScopeSrc, cmm.CompileConfig{NoCalleeSaves: true}, nil, "enter", []uint64{100, 0}},
		{"CalleeSaves_Used", calleeSavesSrc, cmm.CompileConfig{}, nil, "kernel", []uint64{200}},
		{"CalleeSaves_KilledByCutEdges", calleeSavesCutSrc, cmm.CompileConfig{}, nil, "kernel", []uint64{200}},
		{"Div_Fast", divSrc, cmm.CompileConfig{}, nil, "fast", []uint64{200, 3}},
		{"Div_Solid", divSrc, cmm.CompileConfig{}, nil, "solid", []uint64{200, 3}},
		{"Opt_None", optSrc, cmm.CompileConfig{}, nil, "f", []uint64{100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refRes, refStats := runEngineCase(t, tc.src, tc.cc, cmm.EngineRef, tc.disp, tc.proc, tc.args...)
			gotRes, gotStats := runEngineCase(t, tc.src, tc.cc, cmm.EngineNative, tc.disp, tc.proc, tc.args...)
			for i := range refRes {
				for j := range refRes[i] {
					if refRes[i][j] != gotRes[i][j] {
						t.Fatalf("iter %d result %d: ref %d native %d", i, j, refRes[i][j], gotRes[i][j])
					}
				}
			}
			if refStats != gotStats {
				t.Errorf("counter mismatch:\nref:    %+v\nnative: %+v", refStats, gotStats)
			}
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
