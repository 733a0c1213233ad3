package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Synthetic report fixtures covering every schema cmmbench has written.

const v1OLevels = `{
  "olevels": [
    {"name": "figure1_sp3", "o0_cycles": 307, "o2_cycles": 299},
    {"name": "fig2_cut_to", "o0_cycles": 3676, "o2_cycles": 3628}
  ]
}`

const v1Engines = `{
  "engines": [
    {"name": "figure1_sp3", "sim_instrs_per_op": 75002,
     "sim_instrs_per_sec": {"ref": 1e8, "fast": 2e8, "native": 5e9}}
  ]
}`

// v2Report builds a v2 envelope with the given cycle count, native
// throughput, and host CPU count (vary cpus to make hosts differ).
func v2Report(cycles int64, thru float64, cpus int) string {
	return `{
  "schema_version": 2,
  "host": {"goos": "linux", "goarch": "amd64", "cpus": ` + itoaInt(cpus) + `, "go_version": "go1.24.0"},
  "engine_names": ["ref", "fast", "native"],
  "olevels": [
    {"name": "figure1_sp3", "o0_cycles": 307, "o2_cycles": ` + itoa(cycles) + `}
  ],
  "engines": [
    {"name": "figure1_sp3", "sim_instrs_per_op": 75002,
     "sim_instrs_per_sec": {"native": ` + ftoa(thru) + `},
     "kernel_hit_pct": 99.9}
  ]
}`
}

func itoa(n int64) string   { return strconv.FormatInt(n, 10) }
func itoaInt(n int) string  { return strconv.Itoa(n) }
func ftoa(f float64) string { return strconv.FormatInt(int64(f), 10) }

func mustParse(t *testing.T, name, data string) benchReport {
	t.Helper()
	r, err := parseReport(name, []byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseAllSchemas(t *testing.T) {
	r := mustParse(t, "pr5", v1OLevels)
	if r.Schema != 1 || r.Host != nil {
		t.Errorf("v1 olevels: schema=%d host=%v, want schema 1 and no host", r.Schema, r.Host)
	}
	if r.Cycles["figure1_sp3"] != 299 {
		t.Errorf("v1 olevels cycles = %d, want 299", r.Cycles["figure1_sp3"])
	}

	r = mustParse(t, "pr6", v1Engines)
	if r.Thru["figure1_sp3"] != 5e9 {
		t.Errorf("v1 engines native throughput = %g, want 5e9", r.Thru["figure1_sp3"])
	}
	if r.HaveHit {
		t.Error("v1 engines file must not report kernel-hit data")
	}

	r = mustParse(t, "pr8", v2Report(299, 5e9, 8))
	if r.Schema != 2 || r.Host == nil || r.Host.CPUs != 8 {
		t.Errorf("v2 parse: schema=%d host=%+v", r.Schema, r.Host)
	}
	if !r.HaveHit || r.HitPct["figure1_sp3"] != 99.9 {
		t.Errorf("v2 kernel hit = %v %v", r.HaveHit, r.HitPct)
	}

	if _, err := parseReport("empty", []byte(`{}`)); err == nil {
		t.Error("a file with no recognized section must be rejected")
	}
}

// TestHistoricalFastColumns loads the checked-in reports written while
// the threaded-code "fast" engine still existed (v1 BENCH_pr6.json and
// v2 BENCH_pr8.json): both must still parse, trend their native
// throughput, and keep the fast column in every engines row.
func TestHistoricalFastColumns(t *testing.T) {
	for _, name := range []string{"BENCH_pr6.json", "BENCH_pr8.json"} {
		path := filepath.Join("..", "..", name)
		r, err := loadReport(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Thru["figure1_sp1"] <= 0 {
			t.Errorf("%s: no native throughput for figure1_sp1: %v", name, r.Thru)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var raw rawReport
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw.Engines) == 0 {
			t.Fatalf("%s: no engines rows", name)
		}
		for _, e := range raw.Engines {
			if e.SimInstrsPerSec["fast"] <= 0 {
				t.Errorf("%s/%s: fast column missing: %v", name, e.Name, e.SimInstrsPerSec)
			}
		}
	}
}

const v2Stacks = `{
  "schema_version": 2,
  "host": {"goos": "linux", "goarch": "amd64", "cpus": 8, "go_version": "go1.24.0"},
  "engine_names": ["fast"],
  "stacks": [
    {"workload": "fig2_cut_to", "policy": "contig", "policy_cycles": 4},
    {"workload": "fig2_cut_to", "policy": "copy", "policy_cycles": 46}
  ]
}`

// TestParseStacksOnly: a cmmbench -stacks report carries only a
// "stacks" section and must still load; its rows are informational
// (rendered, never gated).
func TestParseStacksOnly(t *testing.T) {
	r := mustParse(t, "pr9", v2Stacks)
	if r.Stacks["fig2_cut_to/contig"] != 4 || r.Stacks["fig2_cut_to/copy"] != 46 {
		t.Errorf("stacks rows = %v", r.Stacks)
	}
	old := mustParse(t, "pr8", v2Report(299, 5e9, 8))
	if regr := findRegressions([]benchReport{old, r}, 0.10, 0.02, 0.10); len(regr) != 0 {
		t.Errorf("stacks-only report must not gate anything, got %v", regr)
	}
	table := renderTrend([]benchReport{old, r})
	if !strings.Contains(table, "### Stack-policy bookkeeping cycles") ||
		!strings.Contains(table, "| fig2_cut_to/copy | — | 46 | — |") {
		t.Errorf("trend table lacks the stacks section:\n%s", table)
	}
}

// v2Sched builds a cmmbench -sched report: 1-worker and 4-worker rows
// with the given throughputs, on a host with the given CPU count.
func v2Sched(thru1, thru4 float64, cpus int, identical bool) string {
	ident := "true"
	if !identical {
		ident = "false"
	}
	return `{
  "schema_version": 2,
  "host": {"goos": "linux", "goarch": "amd64", "cpus": ` + itoaInt(cpus) + `, "go_version": "go1.24.0"},
  "engine_names": ["native"],
  "sched": {
    "engine": "native", "tasks": 2000, "slice": 10000,
    "rows": [
      {"workers": 1, "sim_instrs_per_sec": ` + ftoa(thru1) + `, "speedup_vs_1": 1, "identical": true},
      {"workers": 4, "sim_instrs_per_sec": ` + ftoa(thru4) + `, "speedup_vs_1": 0, "identical": ` + ident + `}
    ]
  }
}`
}

// TestParseSchedSection: a -sched report loads standalone, exposes
// per-worker throughput and the 4w/1w efficiency ratio, and is rejected
// outright if any row failed the determinism proof.
func TestParseSchedSection(t *testing.T) {
	r := mustParse(t, "pr10", v2Sched(1e8, 3.5e8, 4, true))
	if !r.HaveSched {
		t.Fatal("sched report not recognized")
	}
	if r.SchedThru["sched/1w"] != 1e8 || r.SchedThru["sched/4w"] != 3.5e8 {
		t.Errorf("sched throughput rows = %v", r.SchedThru)
	}
	if r.SchedEff != 3.5 || r.SchedEffL != "4w/1w" {
		t.Errorf("sched efficiency = %v (%s), want 3.5 (4w/1w)", r.SchedEff, r.SchedEffL)
	}
	if _, err := parseReport("pr10", []byte(v2Sched(1e8, 3.5e8, 4, false))); err == nil {
		t.Error("a sched row that failed the determinism proof must be rejected")
	}
}

// TestSchedScalingRegression: a >10% same-host drop in the efficiency
// ratio gates; the same drop across host stamps is informational.
func TestSchedScalingRegression(t *testing.T) {
	old := mustParse(t, "pr10", v2Sched(1e8, 3.5e8, 4, true)) // 3.50×
	bad := mustParse(t, "pr11", v2Sched(1e8, 2.8e8, 4, true)) // 2.80×, -20%
	regr := findRegressions([]benchReport{old, bad}, 0.10, 0.02, 0.10)
	if len(regr) != 1 || !strings.Contains(regr[0], "scaling efficiency dropped 20.0%") {
		t.Errorf("want one 20%% scaling regression, got %v", regr)
	}

	ok := mustParse(t, "pr11", v2Sched(1e8, 3.3e8, 4, true)) // -5.7%
	if regr := findRegressions([]benchReport{old, ok}, 0.10, 0.02, 0.10); len(regr) != 0 {
		t.Errorf("6%% efficiency drop should pass, got %v", regr)
	}

	diffHost := mustParse(t, "pr11", v2Sched(1e8, 2.8e8, 8, true))
	if regr := findRegressions([]benchReport{old, diffHost}, 0.10, 0.02, 0.10); len(regr) != 0 {
		t.Errorf("cross-host scaling must not gate, got %v", regr)
	}
}

// TestRenderSchedSection: the trend table carries the per-pool rows and
// the efficiency row.
func TestRenderSchedSection(t *testing.T) {
	reports := []benchReport{
		mustParse(t, "pr8", v2Report(299, 5e9, 4)),
		mustParse(t, "pr10", v2Sched(1e8, 3.5e8, 4, true)),
	}
	table := renderTrend(reports)
	for _, want := range []string{
		"### M:N scheduler scaling",
		"| sched/1w | — | 100 | — |",
		"| sched/4w | — | 350 | — |",
		"| scaling efficiency | — | 3.50× (4w/1w) | — |",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("trend table lacks %q:\n%s", want, table)
		}
	}
}

func TestLabelFromPath(t *testing.T) {
	for path, want := range map[string]string{
		"BENCH_pr5.json":       "pr5",
		"bench/BENCH_pr8.json": "pr8",
		"custom.json":          "custom",
	} {
		if got := label(path); got != want {
			t.Errorf("label(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestThroughputRegressionSameHost is the acceptance scenario: a
// synthetic ≥10% native-throughput drop between two same-host v2
// reports must be flagged.
func TestThroughputRegressionSameHost(t *testing.T) {
	old := mustParse(t, "pr8", v2Report(299, 5_000_000_000, 8))
	bad := mustParse(t, "pr9", v2Report(299, 4_400_000_000, 8)) // -12%
	regr := findRegressions([]benchReport{old, bad}, 0.10, 0.02, 0.10)
	if len(regr) != 1 || !strings.Contains(regr[0], "throughput dropped 12.0%") {
		t.Errorf("want one 12%% throughput regression, got %v", regr)
	}

	// A 5% drop stays under the default threshold.
	ok := mustParse(t, "pr9", v2Report(299, 4_750_000_000, 8))
	if regr := findRegressions([]benchReport{old, ok}, 0.10, 0.02, 0.10); len(regr) != 0 {
		t.Errorf("5%% drop should pass, got %v", regr)
	}
}

// TestThroughputNotGatedAcrossHosts: the same 12% drop on different
// hardware (or against a v1 file with no host stamp) is not a
// regression — host time is only comparable on identical hosts.
func TestThroughputNotGatedAcrossHosts(t *testing.T) {
	old := mustParse(t, "pr8", v2Report(299, 5_000_000_000, 8))
	diffHost := mustParse(t, "pr9", v2Report(299, 4_400_000_000, 4))
	if regr := findRegressions([]benchReport{old, diffHost}, 0.10, 0.02, 0.10); len(regr) != 0 {
		t.Errorf("cross-host throughput must not gate, got %v", regr)
	}

	v1 := mustParse(t, "pr6", v1Engines) // no host stamp
	newer := mustParse(t, "pr8", v2Report(299, 4_000_000_000, 8))
	if regr := findRegressions([]benchReport{v1, newer}, 0.10, 0.02, 0.10); len(regr) != 0 {
		t.Errorf("v1-vs-v2 throughput must not gate, got %v", regr)
	}
}

// TestCycleRegressionAlwaysGated: simulated cycles are deterministic,
// so a rise past the threshold gates even across hosts and schema
// versions.
func TestCycleRegressionAlwaysGated(t *testing.T) {
	old := mustParse(t, "pr5", v1OLevels) // figure1_sp3: 299 cycles
	bad := mustParse(t, "pr9", v2Report(320, 5e9, 4))
	regr := findRegressions([]benchReport{old, bad}, 0.10, 0.02, 0.10)
	if len(regr) != 1 || !strings.Contains(regr[0], "-O2 cycles rose 7.0%") {
		t.Errorf("want one 7%% cycle regression, got %v", regr)
	}

	same := mustParse(t, "pr9", v2Report(299, 5e9, 4))
	if regr := findRegressions([]benchReport{old, same}, 0.10, 0.02, 0.10); len(regr) != 0 {
		t.Errorf("identical cycles should pass, got %v", regr)
	}
}

func TestRenderTrendTable(t *testing.T) {
	reports := []benchReport{
		mustParse(t, "pr5", v1OLevels),
		mustParse(t, "pr6", v1Engines),
		mustParse(t, "pr8", v2Report(299, 5e9, 8)),
	}
	table := renderTrend(reports)
	for _, want := range []string{
		"pr5 → pr6 → pr8",
		"host unknown (throughput not gated)",
		"### Simulated cycles per op",
		"### Native-engine throughput",
		"### Native kernel-hit rate",
		"| figure1_sp3 | 299 | — | 299 | +0.0% |",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("trend table lacks %q:\n%s", want, table)
		}
	}
}

func TestSpliceMarkers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "EXPERIMENTS.md")
	orig := "# Title\n\nintro text\n\n<!-- cmmreport:begin -->\nold table\n<!-- cmmreport:end -->\n\ntrailer\n"
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := spliceMarkers(path, "NEW TABLE\n"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(got)
	if !strings.Contains(text, "NEW TABLE") || strings.Contains(text, "old table") {
		t.Errorf("splice did not replace the table:\n%s", text)
	}
	if !strings.HasPrefix(text, "# Title\n\nintro text\n") || !strings.HasSuffix(text, "\ntrailer\n") {
		t.Errorf("splice damaged surrounding text:\n%s", text)
	}

	// Idempotent: splicing again yields the same bytes.
	if err := spliceMarkers(path, "NEW TABLE\n"); err != nil {
		t.Fatal(err)
	}
	again, _ := os.ReadFile(path)
	if string(again) != text {
		t.Error("splice is not idempotent")
	}

	if err := spliceMarkers(path, ""); err != nil {
		t.Fatal(err)
	}
	noMarkers := filepath.Join(dir, "plain.md")
	os.WriteFile(noMarkers, []byte("no markers here"), 0o644)
	if err := spliceMarkers(noMarkers, "x"); err == nil {
		t.Error("splicing a file without markers must fail")
	}
}
