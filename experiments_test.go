package cmm_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"cmm"
	"cmm/internal/obs"
	"cmm/internal/paper"
)

// TestExperimentsTables renders every table of simulated numbers that
// EXPERIMENTS.md quotes and compares each, byte for byte, with the text
// between its `<!-- name:begin -->` and `<!-- name:end -->` markers.
// Simulated cycles are deterministic, so a difference is a real change
// in the cost model, the compiler or a run-time system, never noise.
// Rerunning with CMM_UPDATE_GOLDENS=1 rewrites the marked regions, as it
// rewrites the testdata/bench goldens.
func TestExperimentsTables(t *testing.T) {
	const path = "EXPERIMENTS.md"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	update := os.Getenv("CMM_UPDATE_GOLDENS") != ""
	for _, s := range []struct {
		name   string
		render func(*testing.T) string
	}{
		{"figure1", figure1Table},
		{"fig2", fig2Table},
		{"fig34", fig34Table},
		{"setjmp", setjmpTable},
		{"calleesaves", calleeSavesTable},
		{"divu", divTable},
		{"opt", optTable},
		{"olevels", olevelsTable},
		{"cmmstacks", stacksTable},
	} {
		t.Run(s.name, func(t *testing.T) {
			begin, end := "<!-- "+s.name+":begin -->\n", "<!-- "+s.name+":end -->"
			before, rest, ok1 := strings.Cut(text, begin)
			want, after, ok2 := strings.Cut(rest, end)
			if !ok1 || !ok2 {
				t.Fatalf("%s: markers %q/%q not found", path, begin, end)
			}
			got := s.render(t)
			switch {
			case got == want:
			case update:
				text = before + begin + got + end + after
			default:
				t.Errorf("%s section %q differs from the rendered table; if the change is intended, "+
					"rerun with CMM_UPDATE_GOLDENS=1\ngot:\n%swant:\n%s", path, s.name, got, want)
			}
		})
	}
	if update && text != string(data) {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// benchRun runs proc once on src, optimized at IR level irLevel and
// compiled under cc, the way the root benchmark of the same program
// builds it. Every run is deterministic, so its counters are the
// benchmark's per-op numbers.
func benchRun(t *testing.T, src string, irLevel int, cc cmm.CompileConfig, proc string, args ...uint64) *cmm.Machine {
	t.Helper()
	mod, err := cmm.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mod.ApplyOpt(irLevel); err != nil {
		t.Fatal(err)
	}
	mach, err := mod.Native(cc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(proc, args...); err != nil {
		t.Fatalf("%s%v: %v", proc, args, err)
	}
	return mach
}

// figure1Table renders BenchmarkFigure1_*: the three sum-and-product
// procedures at n=20.
func figure1Table(t *testing.T) string {
	var b strings.Builder
	b.WriteString("| procedure | cycles/op | instrs/op | mem/op |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, r := range []struct{ label, proc string }{
		{"sp1 (recursion)", "sp1"},
		{"sp2 (tail calls)", "sp2"},
		{"sp3 (loop)", "sp3"},
	} {
		s := benchRun(t, paper.Figure1, 0, cmm.CompileConfig{}, r.proc, 20).Stats()
		fmt.Fprintf(&b, "| %s | %d | %d | %d |\n", r.label, s.Cycles, s.Instrs, s.Loads+s.Stores)
	}
	return b.String()
}

// fig34Table renders BenchmarkFig34_*: 1000 normal returns through a
// call site with two alternates, and the caller's code size.
func fig34Table(t *testing.T) string {
	var b strings.Builder
	b.WriteString("| method | cycles/op | instrs/op | caller size (words) |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, r := range []struct {
		label string
		tab   bool
	}{{"branch table", false}, {"test-and-branch", true}} {
		mach := benchRun(t, fig34Src, 0, cmm.CompileConfig{TestAndBranch: r.tab}, "f", 1000)
		s := mach.Stats()
		fmt.Fprintf(&b, "| %s | %d | %d | %d |\n", r.label, s.Cycles, s.Instrs, mach.CodeSize("f"))
	}
	return b.String()
}

// calleeSavesTable renders BenchmarkCalleeSaves_*: the §4.2 kernel with
// four values live across a call, 200 iterations.
func calleeSavesTable(t *testing.T) string {
	var b strings.Builder
	b.WriteString("| configuration | cycles/op | mem/op |\n")
	b.WriteString("|---|---|---|\n")
	for _, r := range []struct {
		label string
		src   string
		cc    cmm.CompileConfig
	}{
		{"callee-saves used (plain calls)", calleeSavesSrc, cmm.CompileConfig{}},
		{"same kernel, call has a cut edge", calleeSavesCutSrc, cmm.CompileConfig{}},
		{"callee-saves disabled entirely", calleeSavesSrc, cmm.CompileConfig{NoCalleeSaves: true}},
	} {
		s := benchRun(t, r.src, 0, r.cc, "kernel", 200).Stats()
		fmt.Fprintf(&b, "| %s | %d | %d |\n", r.label, s.Cycles, s.Loads+s.Stores)
	}
	return b.String()
}

// divTable renders BenchmarkDiv_*: 200 divisions by a nonzero divisor
// with the fast and the solid primitive.
func divTable(t *testing.T) string {
	var b strings.Builder
	b.WriteString("| primitive | cycles/op |\n")
	b.WriteString("|---|---|\n")
	for _, r := range []struct{ label, proc string }{
		{"`%divu` (fast: one instruction)", "fast"},
		{"`%%divu` (solid: a call and a test per division)", "solid"},
	} {
		s := benchRun(t, divSrc, 0, cmm.CompileConfig{}, r.proc, 200, 3).Stats()
		fmt.Fprintf(&b, "| %s | %d |\n", r.label, s.Cycles)
	}
	return b.String()
}

// optTable renders BenchmarkOpt_*: the handler-rich §6 loop without
// optimization, after the scalar passes with the annotation edges, and
// at -O2.
func optTable(t *testing.T) string {
	var b strings.Builder
	b.WriteString("| optimization | cycles/op | mem/op |\n")
	b.WriteString("|---|---|---|\n")
	for _, r := range []struct {
		label string
		level int
	}{
		{"none (`BenchmarkOpt_None`)", 0},
		{"scalar passes, edges kept (`BenchmarkOpt_WithEdges`)", 1},
		{"-O2 (`BenchmarkOpt_O2`)", 2},
	} {
		cc := cmm.CompileConfig{}
		if r.level == 2 {
			cc.Opt = 2
		}
		s := benchRun(t, optSrc, r.level, cc, "f", 100).Stats()
		fmt.Fprintf(&b, "| %s | %d | %d |\n", r.label, s.Cycles, s.Loads+s.Stores)
	}
	return b.String()
}

// fig2Table renders Figure 2's scenario: simulated cycles to build a
// stack of depth d and raise back to a handler at its bottom, under each
// mechanism. Every total is linear in d because the stack must be built;
// the slope from d=32 to d=256 minus cut to's pure-descent slope is the
// per-frame cost of raising, and the dispatch evidence tells a
// constant-time mechanism from a per-frame one.
func fig2Table(t *testing.T) string {
	depths := []uint64{4, 32, 256}
	var b strings.Builder
	b.WriteString("| mechanism | d=4 | d=32 | d=256 | slope (cyc/frame) | dispatch evidence (d=4/32/256) |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	var baseline float64
	for i, m := range obsMechanisms() {
		var cycles []int64
		var kind string
		var evidence []string
		for _, d := range depths {
			c := observeMechanism(t, m, cmm.EngineNative, d).Metrics().Counters
			cycles = append(cycles, c["sim_cycles"])
			var n int64
			kind, n = dispatchEvidence(c)
			evidence = append(evidence, strconv.FormatInt(n, 10))
		}
		slope := float64(cycles[2]-cycles[1]) / float64(depths[2]-depths[1])
		rel := "baseline"
		if i == 0 {
			baseline = slope
		} else {
			rel = fmt.Sprintf("%+.1f", slope-baseline)
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %.1f (%s) | %s: %s |\n",
			m.row, cycles[0], cycles[1], cycles[2], slope, rel, kind, strings.Join(evidence, " / "))
	}
	return b.String()
}

// dispatchEvidence returns the counter that is a mechanism's telemetry
// signature: activations the unwinding dispatcher walked, alternate
// returns taken, or cuts (a run-time cut resumes by cut). CPS raises
// with none of them.
func dispatchEvidence(c map[string]int64) (string, int64) {
	switch {
	case c["unwind_steps"] > 0:
		return "unwind steps", c["unwind_steps"]
	case c["alt_returns"] > 0:
		return "alt returns", c["alt_returns"]
	case c["cuts"]+c["resume_cut"] > 0:
		return "cuts", c["cuts"] + c["resume_cut"]
	}
	return "events", 0
}

// setjmpTable renders the §2 comparison: 100 handler-scope entries, no
// raise, in the no-callee-saves configuration, under the native 2-word
// cut and under setjmp with each platform's jmp_buf. The bytes column
// sums the observer's modeled setjmp-copy events, one of 4·words bytes
// per scope entry.
func setjmpTable(t *testing.T) string {
	const scopes = 100
	var b strings.Builder
	b.WriteString("| scope-entry discipline | cycles/op | mem/op | jmp_buf bytes copied |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, r := range []struct {
		label string
		src   string
		words int // jmp_buf words; 0 for the native cut
		buf   uint64
	}{
		{"native cut (2 words)", nativeCutScopeSrc, 0, 0},
		{"setjmp, 6-word buf (Pentium)", setjmpSrc(6), 6, 0x10000},
		{"setjmp, 19-word buf (SPARC)", setjmpSrc(19), 19, 0x10000},
		{"setjmp, 84-word buf (Alpha)", setjmpSrc(84), 84, 0x10000},
	} {
		mod, err := cmm.Load(r.src)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		o := cmm.NewObserver()
		mach, err := mod.Native(cmm.CompileConfig{NoCalleeSaves: true}, cmm.WithObserver(o))
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		if _, err := mach.Run("enter", scopes, r.buf); err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		copied := "—"
		if r.words > 0 {
			for i := 0; i < scopes; i++ {
				o.EmitNow(obs.KSetjmpCopy, -1, uint64(r.words), uint64(4*r.words))
			}
			copied = strconv.FormatInt(o.Metrics().Counters["setjmp_bytes_copied"], 10)
		}
		s := mach.Stats()
		fmt.Fprintf(&b, "| %s | %d | %d | %s |\n", r.label, s.Cycles, s.Loads+s.Stores, copied)
	}
	return b.String()
}

// olevelsTable renders the simulated cycles of every optimizer workload
// at -O0 and -O2, the numbers testdata/bench pins.
func olevelsTable(t *testing.T) string {
	var b strings.Builder
	b.WriteString("| workload | -O0 cycles | -O2 cycles | reduction |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, w := range paper.CycleWorkloads {
		o0, o2 := workloadCycles(t, w, 0), workloadCycles(t, w, 2)
		fmt.Fprintf(&b, "| %s | %d | %d | %.1f%% |\n", w.Name, o0, o2, 100*float64(o0-o2)/float64(o0))
	}
	return b.String()
}

// stacksTable renders the strategy × mechanism matrix: each Figure 2
// mechanism workload (CPS keeps no stack to represent and has none) runs
// once under an observer, and replaying that one trace prices every
// stack representation, so the simulated cycles are shared by all four.
func stacksTable(t *testing.T) string {
	var sum, detail strings.Builder
	sum.WriteString("| mechanism | sim cycles (all policies) |")
	for _, k := range obs.StackKinds {
		fmt.Fprintf(&sum, " %s |", k)
	}
	sum.WriteString("\n|---|---|---|---|---|---|\n")
	detail.WriteString("\n| mechanism | policy | cuts | captures | capture words | resumes | overflows | underflows | segments peak |\n")
	detail.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range paper.CycleWorkloads {
		if !strings.HasPrefix(w.Name, "fig2_") {
			continue
		}
		mach := runWorkload(t, w, 0, cmm.WithObserver(cmm.NewObserver()))
		fmt.Fprintf(&sum, "| %s | %d |", w.Name, mach.Stats().Cycles)
		for _, k := range obs.StackKinds {
			s, err := mach.StackStats(k)
			if err != nil {
				t.Fatalf("%s under %s: %v", w.Name, k, err)
			}
			fmt.Fprintf(&sum, " %d |", s.PolicyCycles)
			fmt.Fprintf(&detail, "| %s | %s | %d | %d | %d | %d | %d | %d | %d |\n", w.Name, k,
				s.Cuts, s.Captures, s.CaptureWords, s.Resumes, s.Overflows, s.Underflows, s.SegmentsPeak)
		}
		sum.WriteString("\n")
	}
	return sum.String() + detail.String()
}
