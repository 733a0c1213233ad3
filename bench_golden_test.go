package cmm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cmm"
	"cmm/internal/paper"
)

// The golden files in testdata/bench/ pin the simulated cycles of every
// optimizer workload at -O0 and -O2. Cycles are deterministic, so any
// mismatch is a real perf or semantics regression, not noise, and this
// exact comparison is the repository's only simulated-cycle gate. The
// files are regenerated by rerunning this test with
// CMM_UPDATE_GOLDENS=1; `go run ./cmd/cmmbench -olevels` prints the same
// numbers as the EXPERIMENTS.md table.

// workloadCycles mirrors cmmbench's runner: fresh module, ApplyOpt at
// level != 0, Native at the workload's ablation config, one run.
func workloadCycles(t *testing.T, w paper.CycleWorkload, level int) int64 {
	t.Helper()
	mod, err := cmm.Load(w.Src)
	if err != nil {
		t.Fatal(err)
	}
	if level != 0 {
		if _, err := mod.ApplyOpt(level); err != nil {
			t.Fatal(err)
		}
	}
	d, err := cmm.ParseDispatcher(w.Dispatcher)
	if err != nil {
		t.Fatal(err)
	}
	var opts []cmm.RunOption
	if d != nil {
		opts = append(opts, cmm.WithDispatcher(d))
	}
	mach, err := mod.Native(cmm.CompileConfig{
		TestAndBranch: w.TestAndBranch,
		NoCalleeSaves: w.NoCalleeSaves,
		Opt:           level,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run(w.Proc, w.Args...)
	if err != nil {
		t.Fatalf("%s -O%d: %v", w.Name, level, err)
	}
	if w.Want != nil && (len(res) == 0 || res[0] != *w.Want) {
		t.Fatalf("%s -O%d: got %v, want %d", w.Name, level, res, *w.Want)
	}
	return mach.Stats().Cycles
}

func TestBenchGoldens(t *testing.T) {
	update := os.Getenv("CMM_UPDATE_GOLDENS") != ""
	for _, w := range paper.CycleWorkloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			o0 := workloadCycles(t, w, 0)
			o2 := workloadCycles(t, w, 2)
			if o2 > o0 {
				t.Errorf("-O2 is a pessimization: %d cycles vs %d at -O0", o2, o0)
			}
			got := fmt.Sprintf("O0 %d\nO2 %d\n", o0, o2)
			path := filepath.Join("testdata", "bench", w.Name+".golden")
			if update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with CMM_UPDATE_GOLDENS=1 to create)", err)
			}
			if got != string(want) {
				t.Errorf("cycles drifted from golden %s:\n  golden: %q\n  got:    %q\n"+
					"If the change is intended, regenerate with CMM_UPDATE_GOLDENS=1 "+
					"and refresh EXPERIMENTS.md via cmd/cmmbench -olevels.", path, want, got)
			}
		})
	}
}

// TestBenchGoldenHeadline pins the acceptance bar from the optimizer
// work: ≥10% cycle reduction on the handler-rich workload at -O2.
func TestBenchGoldenHeadline(t *testing.T) {
	for _, w := range paper.CycleWorkloads {
		if w.Name != "opt_handler_rich" {
			continue
		}
		o0 := workloadCycles(t, w, 0)
		o2 := workloadCycles(t, w, 2)
		red := 100 * float64(o0-o2) / float64(o0)
		t.Logf("opt_handler_rich: %d -> %d cycles (%.1f%% reduction)", o0, o2, red)
		if red < 10 {
			t.Errorf("handler-rich reduction %.1f%% is below the 10%% bar", red)
		}
		return
	}
	t.Fatal("opt_handler_rich workload missing from paper.CycleWorkloads")
}
