// Command cmmreport is the perf-regression sentinel: it ingests a
// sequence of cmmbench JSON reports (BENCH_*.json, oldest first),
// normalizes them across schema versions, renders a per-workload trend
// table, and exits non-zero when the newest report regresses past the
// configured thresholds.
//
// Usage:
//
//	cmmreport [flags] BENCH_pr5.json BENCH_pr6.json BENCH_pr8.json
//
// Three metric families are trended, each with its own comparability
// rule:
//
//   - Simulated cycles (-O2, from "olevels" rows) are deterministic, so
//     any two reports are comparable; a rise past
//     -max-cycle-regression fails the run.
//   - Host throughput (native-engine sim instrs/s, from "engines" rows)
//     is only compared between reports whose host metadata (GOOS,
//     GOARCH, CPU count, Go version) is identical; version-1 reports
//     carry no host stamp, so their throughput is shown but never
//     gated. A drop past -max-throughput-regression fails the run.
//   - Kernel-hit rate (native tier, schema v2+) is informational:
//     printed in the table, never gated.
//   - Stack-policy bookkeeping cycles (from "stacks" rows written by
//     cmmbench -stacks) are informational: the policies race each
//     other by design, so the trend is printed but never gated.
//   - Scheduler scaling efficiency (from the "sched" section written by
//     cmmbench -sched): the max-workers/1-worker aggregate-throughput
//     ratio. Like raw throughput it is host-dependent, so it only gates
//     between reports with identical host stamps (a drop past
//     -max-scaling-regression fails the run) and is informational
//     otherwise.
//
// -update-experiments FILE splices the rendered table between the
// `<!-- cmmreport:begin -->` / `<!-- cmmreport:end -->` markers in FILE
// (EXPERIMENTS.md in CI), leaving the rest of the file untouched.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var (
	outFile     = flag.String("out", "", "write the trend table to this file instead of stdout")
	updateExp   = flag.String("update-experiments", "", "splice the trend table between the cmmreport markers in this file")
	maxThruRegr = flag.Float64("max-throughput-regression", 0.10, "fail if native throughput drops by more than this fraction vs the previous comparable report")
	maxCycleRgr = flag.Float64("max-cycle-regression", 0.02, "fail if -O2 simulated cycles rise by more than this fraction vs the previous report")
	maxScaleRgr = flag.Float64("max-scaling-regression", 0.10, "fail if the scheduler's N-worker/1-worker throughput ratio drops by more than this fraction vs the previous same-host report")
)

func main() {
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: cmmreport [flags] BENCH1.json BENCH2.json ... (oldest first)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var reports []benchReport
	for _, path := range flag.Args() {
		r, err := loadReport(path)
		if err != nil {
			fatal(err)
		}
		reports = append(reports, r)
	}
	table := renderTrend(reports)
	regressions := findRegressions(reports, *maxThruRegr, *maxCycleRgr, *maxScaleRgr)

	out := os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	fmt.Fprint(out, table)

	if *updateExp != "" {
		if err := spliceMarkers(*updateExp, table); err != nil {
			fatal(err)
		}
	}

	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "cmmreport: REGRESSION:", r)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmmreport:", err)
	os.Exit(1)
}

// hostInfo mirrors cmmbench's benchHost envelope field.
type hostInfo struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("%s/%s %dcpu %s", h.GOOS, h.GOARCH, h.CPUs, h.GoVersion)
}

// rawReport is the union of every JSON shape the checked-in BENCH_*.json
// files use: v1 {"olevels":...}, v1 {"engines":...}, and the v2
// envelope that may combine them. Absent sections stay nil. Engines
// rows keep every engine's column, including the "fast" column of
// reports written before that engine was removed.
type rawReport struct {
	SchemaVersion int       `json:"schema_version"`
	Host          *hostInfo `json:"host"`
	EngineNames   []string  `json:"engine_names"`
	OLevels       []struct {
		Name     string `json:"name"`
		O0Cycles int64  `json:"o0_cycles"`
		O2Cycles int64  `json:"o2_cycles"`
	} `json:"olevels"`
	Engines []struct {
		Name            string             `json:"name"`
		SimInstrsPerOp  int64              `json:"sim_instrs_per_op"`
		SimInstrsPerSec map[string]float64 `json:"sim_instrs_per_sec"`
		KernelHitPct    float64            `json:"kernel_hit_pct"`
	} `json:"engines"`
	Stacks []struct {
		Workload     string `json:"workload"`
		Policy       string `json:"policy"`
		PolicyCycles int64  `json:"policy_cycles"`
	} `json:"stacks"`
	Sched *struct {
		Tasks int64 `json:"tasks"`
		Slice int64 `json:"slice"`
		Rows  []struct {
			Workers         int     `json:"workers"`
			SimInstrsPerSec float64 `json:"sim_instrs_per_sec"`
			Identical       bool    `json:"identical"`
		} `json:"rows"`
	} `json:"sched"`
}

// benchReport is one normalized input file.
type benchReport struct {
	Label   string // file basename, BENCH_ prefix and .json suffix stripped
	Schema  int    // 1 for pre-envelope files
	Host    *hostInfo
	Cycles  map[string]int64   // workload -> -O2 simulated cycles
	Thru    map[string]float64 // workload -> native sim instrs/s
	HitPct  map[string]float64 // workload -> native kernel-hit % (schema v2+)
	Stacks  map[string]int64   // "workload/policy" -> stack-policy bookkeeping cycles
	HaveHit bool

	// Scheduler scaling (cmmbench -sched): aggregate throughput per
	// worker count, plus the max-workers/1-worker efficiency ratio.
	SchedThru map[string]float64 // "sched/2w" -> aggregate sim instrs/s
	SchedEff  float64            // thru[max workers] / thru[min workers]
	SchedEffL string             // label for the ratio, e.g. "4w/1w"
	HaveSched bool
}

// label turns "bench/BENCH_pr5.json" into "pr5".
func label(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, filepath.Ext(base))
	base = strings.TrimPrefix(base, "BENCH_")
	return base
}

func loadReport(path string) (benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchReport{}, err
	}
	return parseReport(label(path), data)
}

func parseReport(name string, data []byte) (benchReport, error) {
	var raw rawReport
	if err := json.Unmarshal(data, &raw); err != nil {
		return benchReport{}, fmt.Errorf("%s: %v", name, err)
	}
	r := benchReport{
		Label:  name,
		Schema: raw.SchemaVersion,
		Host:   raw.Host,
		Cycles: map[string]int64{},
		Thru:   map[string]float64{},
		HitPct: map[string]float64{},
		Stacks: map[string]int64{},
	}
	if r.Schema == 0 {
		r.Schema = 1
	}
	if raw.OLevels == nil && raw.Engines == nil && raw.Stacks == nil && raw.Sched == nil {
		return r, fmt.Errorf("%s: no olevels, engines, stacks, or sched section", name)
	}
	for _, o := range raw.OLevels {
		r.Cycles[o.Name] = o.O2Cycles
	}
	for _, e := range raw.Engines {
		if v, ok := e.SimInstrsPerSec["native"]; ok {
			r.Thru[e.Name] = v
		}
		if r.Schema >= 2 {
			r.HitPct[e.Name] = e.KernelHitPct
			r.HaveHit = true
		}
	}
	for _, s := range raw.Stacks {
		r.Stacks[s.Workload+"/"+s.Policy] = s.PolicyCycles
	}
	if raw.Sched != nil && len(raw.Sched.Rows) > 0 {
		r.SchedThru = map[string]float64{}
		minW, maxW := raw.Sched.Rows[0], raw.Sched.Rows[0]
		for _, row := range raw.Sched.Rows {
			if !row.Identical {
				return r, fmt.Errorf("%s: sched row at %d workers failed the determinism proof", name, row.Workers)
			}
			r.SchedThru[fmt.Sprintf("sched/%dw", row.Workers)] = row.SimInstrsPerSec
			if row.Workers < minW.Workers {
				minW = row
			}
			if row.Workers > maxW.Workers {
				maxW = row
			}
		}
		if minW.Workers < maxW.Workers && minW.SimInstrsPerSec > 0 {
			r.SchedEff = maxW.SimInstrsPerSec / minW.SimInstrsPerSec
			r.SchedEffL = fmt.Sprintf("%dw/%dw", maxW.Workers, minW.Workers)
			r.HaveSched = true
		}
	}
	return r, nil
}

// sameHost reports whether throughput in a and b was measured on
// provably identical hardware. Unknown hosts (v1 files) never match.
func sameHost(a, b *hostInfo) bool {
	return a != nil && b != nil && *a == *b
}

// workloadsOf collects the union of workload names across reports for
// one metric accessor, in sorted order.
func workloadsOf(reports []benchReport, get func(benchReport) map[string]int64) []string {
	seen := map[string]bool{}
	for _, r := range reports {
		for name := range get(r) {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func workloadsOfF(reports []benchReport, get func(benchReport) map[string]float64) []string {
	return workloadsOf(reports, func(r benchReport) map[string]int64 {
		out := map[string]int64{}
		for k := range get(r) {
			out[k] = 1
		}
		return out
	})
}

// deltaPct formats the newest-vs-previous change of a series, or "—"
// when fewer than two reports carry the workload.
func deltaPct(vals []float64, have []bool) string {
	last, prev := -1, -1
	for i := len(vals) - 1; i >= 0; i-- {
		if !have[i] {
			continue
		}
		if last < 0 {
			last = i
		} else {
			prev = i
			break
		}
	}
	if last < 0 || prev < 0 || vals[prev] == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", 100*(vals[last]-vals[prev])/vals[prev])
}

// renderTrend renders the full markdown trend report.
func renderTrend(reports []benchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Bench history — %d report(s)", len(reports))
	var labels []string
	for _, r := range reports {
		labels = append(labels, r.Label)
	}
	fmt.Fprintf(&b, " (%s)\n\n", strings.Join(labels, " → "))
	for _, r := range reports {
		if r.Host != nil {
			fmt.Fprintf(&b, "- %s: schema v%d, host %s\n", r.Label, r.Schema, *r.Host)
		} else {
			fmt.Fprintf(&b, "- %s: schema v%d, host unknown (throughput not gated)\n", r.Label, r.Schema)
		}
	}
	b.WriteString("\n")

	// Simulated cycles: deterministic, every report comparable.
	if names := workloadsOf(reports, func(r benchReport) map[string]int64 { return r.Cycles }); len(names) > 0 {
		fmt.Fprintf(&b, "### Simulated cycles per op (-O2, deterministic)\n\n")
		writeHeader(&b, labels)
		for _, n := range names {
			vals, have := seriesI(reports, n)
			fmt.Fprintf(&b, "| %s |", n)
			for i := range reports {
				if have[i] {
					fmt.Fprintf(&b, " %d |", int64(vals[i]))
				} else {
					fmt.Fprint(&b, " — |")
				}
			}
			fmt.Fprintf(&b, " %s |\n", deltaPct(vals, have))
		}
		b.WriteString("\n")
	}

	// Native throughput: host-dependent.
	if names := workloadsOfF(reports, func(r benchReport) map[string]float64 { return r.Thru }); len(names) > 0 {
		fmt.Fprintf(&b, "### Native-engine throughput (M sim instrs/s, host-dependent)\n\n")
		writeHeader(&b, labels)
		for _, n := range names {
			vals, have := seriesF(reports, n, func(r benchReport) map[string]float64 { return r.Thru })
			fmt.Fprintf(&b, "| %s |", n)
			for i := range reports {
				if have[i] {
					fmt.Fprintf(&b, " %.0f |", vals[i]/1e6)
				} else {
					fmt.Fprint(&b, " — |")
				}
			}
			fmt.Fprintf(&b, " %s |\n", deltaPct(vals, have))
		}
		b.WriteString("\n")
	}

	// Stack-policy bookkeeping cycles: deterministic shadow-model costs
	// from cmmbench -stacks. Informational only — the policies race each
	// other by design, so a rise is a cost-model change, not a
	// regression, and never gates.
	if names := workloadsOf(reports, func(r benchReport) map[string]int64 { return r.Stacks }); len(names) > 0 {
		fmt.Fprintf(&b, "### Stack-policy bookkeeping cycles (workload/policy, informational)\n\n")
		writeHeader(&b, labels)
		for _, n := range names {
			vals, have := seriesF(reports, n, func(r benchReport) map[string]float64 {
				out := map[string]float64{}
				for k, v := range r.Stacks {
					out[k] = float64(v)
				}
				return out
			})
			fmt.Fprintf(&b, "| %s |", n)
			for i := range reports {
				if have[i] {
					fmt.Fprintf(&b, " %d |", int64(vals[i]))
				} else {
					fmt.Fprint(&b, " — |")
				}
			}
			fmt.Fprintf(&b, " %s |\n", deltaPct(vals, have))
		}
		b.WriteString("\n")
	}

	// Scheduler scaling: aggregate throughput per worker-pool size plus
	// the top/bottom efficiency ratio. Host-dependent, like raw
	// throughput.
	if names := workloadsOfF(reports, func(r benchReport) map[string]float64 { return r.SchedThru }); len(names) > 0 {
		fmt.Fprintf(&b, "### M:N scheduler scaling (aggregate M sim instrs/s per worker pool, host-dependent)\n\n")
		writeHeader(&b, labels)
		for _, n := range names {
			vals, have := seriesF(reports, n, func(r benchReport) map[string]float64 { return r.SchedThru })
			fmt.Fprintf(&b, "| %s |", n)
			for i := range reports {
				if have[i] {
					fmt.Fprintf(&b, " %.0f |", vals[i]/1e6)
				} else {
					fmt.Fprint(&b, " — |")
				}
			}
			fmt.Fprintf(&b, " %s |\n", deltaPct(vals, have))
		}
		effVals := make([]float64, len(reports))
		effHave := make([]bool, len(reports))
		for i, r := range reports {
			effVals[i], effHave[i] = r.SchedEff, r.HaveSched
		}
		fmt.Fprint(&b, "| scaling efficiency |")
		for _, r := range reports {
			if r.HaveSched {
				fmt.Fprintf(&b, " %.2f× (%s) |", r.SchedEff, r.SchedEffL)
			} else {
				fmt.Fprint(&b, " — |")
			}
		}
		fmt.Fprintf(&b, " %s |\n\n", deltaPct(effVals, effHave))
	}

	// Kernel-hit rate: v2 reports only.
	any := false
	for _, r := range reports {
		any = any || r.HaveHit
	}
	if any {
		names := workloadsOfF(reports, func(r benchReport) map[string]float64 { return r.HitPct })
		fmt.Fprintf(&b, "### Native kernel-hit rate (%% of retired instrs charged in closed form)\n\n")
		writeHeader(&b, labels)
		for _, n := range names {
			vals, have := seriesF(reports, n, func(r benchReport) map[string]float64 { return r.HitPct })
			fmt.Fprintf(&b, "| %s |", n)
			for i := range reports {
				if have[i] {
					fmt.Fprintf(&b, " %.0f%% |", vals[i])
				} else {
					fmt.Fprint(&b, " — |")
				}
			}
			fmt.Fprintf(&b, " %s |\n", deltaPct(vals, have))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func writeHeader(b *strings.Builder, labels []string) {
	fmt.Fprint(b, "| workload |")
	for _, l := range labels {
		fmt.Fprintf(b, " %s |", l)
	}
	fmt.Fprint(b, " Δ last |\n|---|")
	for range labels {
		fmt.Fprint(b, "---|")
	}
	fmt.Fprint(b, "---|\n")
}

func seriesI(reports []benchReport, name string) ([]float64, []bool) {
	vals := make([]float64, len(reports))
	have := make([]bool, len(reports))
	for i, r := range reports {
		if v, ok := r.Cycles[name]; ok {
			vals[i], have[i] = float64(v), true
		}
	}
	return vals, have
}

func seriesF(reports []benchReport, name string, get func(benchReport) map[string]float64) ([]float64, []bool) {
	vals := make([]float64, len(reports))
	have := make([]bool, len(reports))
	for i, r := range reports {
		if v, ok := get(r)[name]; ok {
			vals[i], have[i] = v, true
		}
	}
	return vals, have
}

// findRegressions compares the newest report against the most recent
// earlier report that carries a comparable value for each workload.
// Cycle comparisons are unconditional (deterministic metric);
// throughput comparisons additionally require identical host metadata.
func findRegressions(reports []benchReport, maxThru, maxCycle, maxScale float64) []string {
	if len(reports) < 2 {
		return nil
	}
	newest := reports[len(reports)-1]
	var out []string

	for _, name := range workloadsOf(reports, func(r benchReport) map[string]int64 { return r.Cycles }) {
		newV, ok := newest.Cycles[name]
		if !ok {
			continue
		}
		for i := len(reports) - 2; i >= 0; i-- {
			oldV, ok := reports[i].Cycles[name]
			if !ok || oldV == 0 {
				continue
			}
			if rise := float64(newV-oldV) / float64(oldV); rise > maxCycle {
				out = append(out, fmt.Sprintf(
					"%s: -O2 cycles rose %.1f%% (%d → %d, %s → %s; threshold %.0f%%)",
					name, 100*rise, oldV, newV, reports[i].Label, newest.Label, 100*maxCycle))
			}
			break // only the most recent earlier value gates
		}
	}

	for _, name := range workloadsOfF(reports, func(r benchReport) map[string]float64 { return r.Thru }) {
		newV, ok := newest.Thru[name]
		if !ok || newV == 0 {
			continue
		}
		for i := len(reports) - 2; i >= 0; i-- {
			oldV, ok := reports[i].Thru[name]
			if !ok || oldV == 0 {
				continue
			}
			if !sameHost(reports[i].Host, newest.Host) {
				break // hosts differ or unknown: shown in the table, never gated
			}
			if drop := (oldV - newV) / oldV; drop > maxThru {
				out = append(out, fmt.Sprintf(
					"%s: native throughput dropped %.1f%% (%.0fM → %.0fM sim instrs/s, %s → %s; threshold %.0f%%)",
					name, 100*drop, oldV/1e6, newV/1e6, reports[i].Label, newest.Label, 100*maxThru))
			}
			break
		}
	}

	// Scheduler scaling efficiency: same-host gated, like throughput.
	if newest.HaveSched {
		for i := len(reports) - 2; i >= 0; i-- {
			old := reports[i]
			if !old.HaveSched {
				continue
			}
			if !sameHost(old.Host, newest.Host) {
				break
			}
			if drop := (old.SchedEff - newest.SchedEff) / old.SchedEff; drop > maxScale {
				out = append(out, fmt.Sprintf(
					"sched: scaling efficiency dropped %.1f%% (%.2f× %s → %.2f× %s, %s → %s; threshold %.0f%%)",
					100*drop, old.SchedEff, old.SchedEffL, newest.SchedEff, newest.SchedEffL,
					old.Label, newest.Label, 100*maxScale))
			}
			break
		}
	}
	return out
}

const (
	beginMarker = "<!-- cmmreport:begin -->"
	endMarker   = "<!-- cmmreport:end -->"
)

// spliceMarkers replaces the text between the cmmreport markers in path
// with table, preserving everything else byte for byte.
func spliceMarkers(path, table string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := string(data)
	begin := strings.Index(text, beginMarker)
	end := strings.Index(text, endMarker)
	if begin < 0 || end < 0 || end < begin {
		return fmt.Errorf("%s: missing %s / %s markers", path, beginMarker, endMarker)
	}
	out := text[:begin+len(beginMarker)] + "\n\n" + table + "\n" + text[end:]
	return os.WriteFile(path, []byte(out), 0o644)
}
