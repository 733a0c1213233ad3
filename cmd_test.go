package cmm_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cmm"
)

// runTool executes one of the repo's commands via `go run`.
func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// runToolFail executes a command expecting a non-zero exit and returns
// the combined output.
func runToolFail(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go run %v: expected failure, got success\n%s", args, out)
	}
	return string(out)
}

func TestCmmrunTool(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmrun", "-run", "sp1", "-args", "10", "-stats", "testdata/figure1.cmm")
	if !strings.Contains(out, "[55 3628800]") {
		t.Errorf("output: %s", out)
	}
	if !strings.Contains(out, "transitions:") {
		t.Errorf("no step count: %s", out)
	}
}

// TestCmmrunEngineFlag: -engine=native runs the compiled-closure tier
// with counters identical to the reference engine, and a bad engine
// name fails with a message listing every valid engine.
func TestCmmrunEngineFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	var stats [2]string
	for i, engine := range []string{"ref", "native"} {
		out := runTool(t, "./cmd/cmmrun", "-engine="+engine, "-run", "sp1", "-args", "10", "-stats", "testdata/figure1.cmm")
		if !strings.Contains(out, "sp1([10]) = [55 3628800") {
			t.Errorf("-engine=%s output: %s", engine, out)
		}
		// The stats line names no engine, so it compares verbatim.
		stats[i] = statsLine(t, out)
	}
	if stats[0] != stats[1] {
		t.Errorf("ref/native counter mismatch:\nref:    %s\nnative: %s", stats[0], stats[1])
	}

	out := runToolFail(t, "./cmd/cmmrun", "-engine=turbo", "-run", "sp1", "testdata/figure1.cmm")
	for _, name := range []string{"interp", "ref", "native"} {
		if !strings.Contains(out, name) {
			t.Errorf("bad-engine error does not list %q: %s", name, out)
		}
	}
}

// statsLine returns the -stats counters line of a tool's output.
func statsLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cycles: ") {
			return line
		}
	}
	t.Fatalf("no -stats line in output:\n%s", out)
	return ""
}

// TestCmmrunMetricsMatchStats: the counters section of -metrics is the
// machine-readable form of the -stats line; both report the same run.
func TestCmmrunMetricsMatchStats(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	out := runTool(t, "./cmd/cmmrun", "-engine=native", "-run", "sp3", "-args", "10", "-stats", "-metrics", metrics, "testdata/figure1.cmm")
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	c := m.Counters
	got := cmm.Stats{Cycles: c["sim_cycles"], Instrs: c["sim_instrs"], Loads: c["instr_load"], Stores: c["instr_store"],
		Branches: c["instr_branch"], Calls: c["instr_call"], Yields: c["instr_yield"]}
	if stats := statsLine(t, out); got.String() != stats || got.Cycles == 0 {
		t.Errorf("-metrics counters %v disagree with -stats %s", got, stats)
	}
}

// TestCmmrunObservability: -trace/-metrics/-profile write a valid Chrome
// trace (with compile passes and runtime events on one timeline),
// deterministic metrics JSON, and folded stacks.
func TestCmmrunObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	metrics := filepath.Join(dir, "metrics.json")
	profile := filepath.Join(dir, "profile.folded")
	runTool(t, "./cmd/cmmrun", "-engine=native", "-run", "sp3", "-args", "10",
		"-trace", trace, "-metrics", metrics, "-profile", profile,
		"testdata/figure1.cmm")

	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var sawCompile, sawRun bool
	for _, ev := range tr.TraceEvents {
		switch ev["ph"] {
		case "X":
			sawCompile = true
		case "B", "E", "i":
			sawRun = true
		}
	}
	if !sawCompile || !sawRun {
		t.Errorf("trace lacks compile spans (%v) or runtime events (%v)", sawCompile, sawRun)
	}

	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	raw, err = os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	if m.Counters["sim_cycles"] == 0 || m.Counters["calls"] == 0 {
		t.Errorf("metrics counters empty: %v", m.Counters)
	}

	raw, err = os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "sp3") || !strings.Contains(string(raw), ";") {
		t.Errorf("folded profile lacks stacks: %s", raw)
	}

	// Text format renders one line per event.
	runTool(t, "./cmd/cmmrun", "-engine=native", "-run", "sp3", "-args", "10",
		"-trace", trace, "-trace-format", "text", "testdata/figure1.cmm")
	raw, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "call") || !strings.Contains(string(raw), "cyc=") {
		t.Errorf("text trace: %s", raw)
	}

	// The default interp engine traces too: the abstract machine has no
	// cycle model, but call events and a profile (in transitions) still
	// come out.
	runTool(t, "./cmd/cmmrun", "-run", "sp1", "-args", "10",
		"-trace", trace, "-profile", profile, "testdata/figure1.cmm")
	raw, err = os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "sp1") {
		t.Errorf("interp folded profile lacks sp1: %s", raw)
	}
}

// TestCmmrunDiagnostics: failures exit non-zero and render through the
// structured diagnostic format, naming the pass that failed.
func TestCmmrunDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runToolFail(t, "./cmd/cmmrun", "-run", "nosuch", "testdata/figure1.cmm")
	if !strings.Contains(out, "error: [run]") {
		t.Errorf("runtime failure not rendered as a diagnostic:\n%s", out)
	}
	src := filepath.Join(t.TempDir(), "bad.cmm")
	if err := os.WriteFile(src, []byte("f (bits32 x) {\n    x = ;\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runToolFail(t, "./cmd/cmmrun", src)
	if !strings.Contains(out, "error: [parse]") || !strings.Contains(out, "bad.cmm:2:") {
		t.Errorf("parse failure lacks structured position/pass:\n%s", out)
	}
}

// TestCmmrunTruncatedTrace: -profile and -stack replay the whole
// trace, so a run that overflows the trace buffer fails both with the
// same diagnostic naming the dropped count, instead of writing a profile
// or a ledger that silently under-counts.
func TestCmmrunTruncatedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	src := filepath.Join(t.TempDir(), "calls.cmm")
	prog := `export main;
leaf(bits32 x) {
    return (x + 1);
}
main(bits32 n) {
    bits32 i, s;
    i = 0;
    s = 0;
loop:
    if i < n {
        s = leaf(s);
        i = i + 1;
        goto loop;
    }
    return (s);
}
`
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	// 1.1M calls and returns are 2.2M events: past the 2M-event buffer.
	const want = "trace truncated: 102850 events dropped past the 2097152-event buffer"
	for _, flags := range [][]string{
		{"-profile", filepath.Join(t.TempDir(), "p.folded")},
		{"-stack", "seg"},
	} {
		args := append([]string{"./cmd/cmmrun", "-engine=native", "-run", "main", "-args", "1100000"}, flags...)
		out := runToolFail(t, append(args, src)...)
		if !strings.Contains(out, "error: [") || !strings.Contains(out, want) {
			t.Errorf("cmmrun %s on a truncated trace:\n%s\nwant a diagnostic containing %q", flags[0], out, want)
		}
	}
}

func TestCmmcTool(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmc", "-run", "sp3", "-args", "10", "-stats", "-O", "1", "testdata/figure1.cmm")
	if !strings.Contains(out, "55 3628800") {
		t.Errorf("output: %s", out)
	}
	// cmmc and cmmrun print the counters in the same format.
	statsLine(t, out)
}

func TestCmmdumpTool(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmdump", "-proc", "sp3", "testdata/figure1.cmm")
	if !strings.Contains(out, "Entry") || !strings.Contains(out, "Branch") {
		t.Errorf("graph dump: %s", out)
	}
	out = runTool(t, "./cmd/cmmdump", "-proc", "sp3", "-ssa", "testdata/figure1.cmm")
	if !strings.Contains(out, "φ") {
		t.Errorf("ssa dump lacks phis: %s", out)
	}
}

func TestCmmdumpMiniM3(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmdump", "-minim3", "cutting", "-emit-cmm", "testdata/game.m3")
	if !strings.Contains(out, "cut to") || !strings.Contains(out, "also cuts to") {
		t.Errorf("minim3 emission: %s", out)
	}
}

// prunableM3 is the annotation-inference program of the MiniM3 tests:
// pure never raises, so pruning drops every annotation from pureLoop's
// call to it, while the call to raises keeps its own.
const prunableM3 = `
exception E;
proc pure(x) { return x * 2 + 1; }
proc pureLoop(n) {
    var s;
    s = 0;
    while n > 0 {
        s = s + pure(n);
        n = n - 1;
    }
    return s;
}
proc divides(a, b) { return a / b; }        // may raise DivZero
proc raises(x) { raise E(x); return 0; }
proc callsRaiser(x) { return raises(x) + 1; }
proc catches(x) {
    var r;
    try {
        r = raises(x);
    } except E(v) {
        r = v;
    }
    return r;
}
`

// TestCmmdumpMiniM3Pruned: cmmdump -minim3 shows the C-- that cmmc and
// cmmvet load, with annotation inference applied, under every policy.
func TestCmmdumpMiniM3Pruned(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	file := filepath.Join(t.TempDir(), "infer.m3")
	if err := os.WriteFile(file, []byte(prunableM3), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"cutting", "unwinding", "native"} {
		out := runTool(t, "./cmd/cmmdump", "-minim3", policy, "-emit-cmm", file)
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "= pure(n)") && strings.Contains(line, "also") {
				t.Errorf("%s: call to the non-raising pure keeps its annotations: %s", policy, line)
			}
			if strings.Contains(line, "= raises(") && policy != "cutting" && !strings.Contains(line, "also") {
				t.Errorf("%s: call to raises lost its annotations: %s", policy, line)
			}
		}
		if !strings.Contains(out, "= pure(n)") {
			t.Errorf("%s: no call to pure in the emitted C--:\n%s", policy, out)
		}
	}
}

// TestToolErrorEndsInOneNewline: a failing tool ends its diagnostics
// with one newline, not a blank line. The binary is built rather than
// run through go run, which appends its own exit-status line.
func TestToolErrorEndsInOneNewline(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	bin := filepath.Join(t.TempDir(), "cmmc")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/cmmc").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/cmmc: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-dump-after=opt", "testdata/figure1.cmm")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("cmmc -dump-after=opt without -O succeeded")
	}
	if s := stderr.String(); !strings.HasSuffix(s, "\n") || strings.HasSuffix(s, "\n\n") {
		t.Errorf("stderr does not end in exactly one newline: %q", s)
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke tests build binaries")
	}
	for _, ex := range []struct{ dir, want string }{
		{"./examples/quickstart", "sp3(10): interpreter (sum=55, product=3628800)"},
		{"./examples/modula3", "policy native-unwind"},
		{"./examples/optimizer", "miscompiled f(41) goes wrong"},
		{"./examples/mechanisms", "CPS tail call"},
	} {
		out := runTool(t, ex.dir)
		if !strings.Contains(out, ex.want) {
			t.Errorf("%s: output lacks %q:\n%s", ex.dir, ex.want, out)
		}
	}
}

// TestCmmrunExplainTelemetry: -explain prints the distiller's kernel
// report (matched shapes with concrete parameters, rejections with
// reasons) before the run and the deterministic engine counters after
// it.
func TestCmmrunExplainTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmrun", "-engine=native", "-explain",
		"-run", "sp3", "-args", "10", "testdata/figure1.cmm")
	for _, want := range []string{
		"kernel report: 3 of 4 candidate cycles distilled",
		"counted loop over",
		"frame-push",
		"frame-pop",
		"rejected — ",
		"telemetry[native]: kernel entries: 1 iters: 8 instrs: 120",
		"cycle-exit: 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cmmrun explain/telemetry output lacks %q:\n%s", want, out)
		}
	}
	// -explain works under the default interp engine too (it compiles
	// just for the report), and cmmc exposes the same report.
	out = runTool(t, "./cmd/cmmrun", "-explain", "-run", "sp3", "-args", "3", "testdata/figure1.cmm")
	if !strings.Contains(out, "kernel report:") || !strings.Contains(out, "sp3([3]) =") {
		t.Errorf("interp -explain output wrong:\n%s", out)
	}
	out = runTool(t, "./cmd/cmmc", "-explain", "testdata/figure1.cmm")
	if !strings.Contains(out, "kernel report: 3 of 4 candidate cycles distilled") {
		t.Errorf("cmmc -explain output wrong:\n%s", out)
	}
}

// TestToolFlagSets pins each tool's flag set: one flag per job, so a
// second spelling of an existing flag shows up here first.
func TestToolFlagSets(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	flagName := regexp.MustCompile(`(?m)^  -(\S+)`)
	for tool, want := range map[string]string{
		"cmmc":    "O args diags disasm dispatcher dump-after explain minim3 no-callee-saves passes proc run stats test-and-branch timings vet vet-strict workers",
		"cmmrun":  "O args cont cpuprofile dispatcher engine explain memprofile metrics profile run stack stats trace trace-format vet",
		"cmmdump": "O emit-cmm live minim3 proc ssa",
		"cmmvet":  "minim3 strict",
	} {
		var got []string
		for _, m := range flagName.FindAllStringSubmatch(runTool(t, "./cmd/"+tool, "-h"), -1) {
			got = append(got, m[1])
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s flags = %s\nwant        %s", tool, strings.Join(got, " "), want)
		}
	}
}

// TestCmmcDumpAfter: -dump-after prints the IR snapshot of each named
// pass, and naming a pass that never ran fails with a hint instead of
// printing nothing.
func TestCmmcDumpAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmc", "-O", "1", "-dump-after=translate,opt,codegen", "-proc", "sp1", "testdata/figure1.cmm")
	for _, want := range []string{"=== sp1 after translate ===", "=== sp1 after opt ===", "=== sp1 after codegen ===", "graph sp1"} {
		if !strings.Contains(out, want) {
			t.Errorf("cmmc -dump-after output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "sp3") {
		t.Errorf("-proc sp1 snapshot mentions sp3:\n%s", out)
	}
	out = runToolFail(t, "./cmd/cmmc", "-dump-after=opt", "testdata/figure1.cmm")
	if !strings.Contains(out, `no snapshot after pass "opt"`) || !strings.Contains(out, "-O 1 enables opt") {
		t.Errorf("-dump-after on a pass that never ran:\n%s", out)
	}
}
