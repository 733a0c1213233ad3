package cmm_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
	out := runTool(t, "./cmd/cmmrun", "-run", "sp1", "-args", "10", "-steps", "testdata/figure1.cmm")
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
		out := runTool(t, "./cmd/cmmrun", "-engine="+engine, "-run", "sp1", "-args", "10", "-stats=json", "testdata/figure1.cmm")
		if !strings.Contains(out, "sp1([10]) = [55 3628800") {
			t.Errorf("-engine=%s output: %s", engine, out)
		}
		// Strip the engine name from the stats line so the counter
		// fields can be compared verbatim across engines.
		line := strings.TrimSpace(out[strings.Index(out, "{"):])
		stats[i] = strings.Replace(line, `"engine":"`+engine+`"`, `"engine":"?"`, 1)
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

// TestCmmrunStatsJSON: -stats=json emits the machine counters as a
// single parseable JSON object for the bench tooling to scrape.
func TestCmmrunStatsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmrun", "-engine=native", "-run", "sp3", "-args", "10", "-stats=json", "testdata/figure1.cmm")
	line := out[strings.Index(out, "{"):]
	var stats map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &stats); err != nil {
		t.Fatalf("-stats=json output does not parse: %v\n%s", err, out)
	}
	for _, key := range []string{"cycles", "instrs", "loads", "stores"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("-stats=json missing %q: %s", key, line)
		}
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

// TestCmmbenchTool: the figure regenerator emits the Figure 2 table with
// the cycle counts EXPERIMENTS.md quotes.
func TestCmmbenchTool(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmbench")
	for _, want := range []string{
		"| cut to (generated) | 148 | 540 | 3676 |",
		"| SetActivation+SetUnwindCont | 311 | 1627 | 12155 |",
		"jmp_buf words",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cmmbench figure output lacks %q:\n%s", want, out)
		}
	}
}

func TestCmmcTool(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmc", "-run", "sp3", "-args", "10", "-stats", "-opt", "testdata/figure1.cmm")
	if !strings.Contains(out, "55 3628800") {
		t.Errorf("output: %s", out)
	}
	if !strings.Contains(out, "cycles=") {
		t.Errorf("no stats: %s", out)
	}
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
	if !strings.Contains(out, "cut to") || !strings.Contains(out, "mm_exn_top") {
		t.Errorf("minim3 emission: %s", out)
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
// reasons), and -telemetry prints the deterministic engine counters.
func TestCmmrunExplainTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests build binaries")
	}
	out := runTool(t, "./cmd/cmmrun", "-engine=native", "-explain", "-telemetry",
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
	out = runTool(t, "./cmd/cmmc", "-explain-kernels", "testdata/figure1.cmm")
	if !strings.Contains(out, "kernel report: 3 of 4 candidate cycles distilled") {
		t.Errorf("cmmc -explain-kernels output wrong:\n%s", out)
	}
}
