// Command cmmbench regenerates the paper-figure measurements from the
// observability layer and benchmarks host throughput.
//
// Default mode reruns the Figure 2 design-space scenario — raise from
// depth d back to a bottom handler under each exception mechanism —
// with an observer attached, and prints the EXPERIMENTS.md table
// from the collected metrics: simulated cycles per (build stack +
// raise), the per-frame slope, and the dispatch evidence (unwind steps
// walked, cut depths) that tells constant-time from linear mechanisms
// apart. It also reruns the §2 setjmp scope-entry comparison with
// modeled jmp_buf copy events.
//
//	go run ./cmd/cmmbench                # figure tables, markdown
//	go run ./cmd/cmmbench -engines                        # ref vs native throughput
//	go run ./cmd/cmmbench -olevels                        # -O0 vs -O2 table
//	go run ./cmd/cmmbench -olevels -json BENCH_pr5.json   # + JSON report
//	go run ./cmd/cmmbench -olevels -goldens testdata/bench
//	go run ./cmd/cmmbench -report -json BENCH_pr8.json    # combined report
//	go run ./cmd/cmmbench -stacks -json BENCH_stacks.json -update-experiments EXPERIMENTS.md
//
// -engines measures host throughput (ns/op and simulated instructions
// retired per host second) of both execution engines on every optimizer
// workload, plus the native tier's kernel coverage.
//
// -olevels reruns the fixed optimizer workloads (paper.CycleWorkloads)
// at -O0 and -O2 and prints the EXPERIMENTS.md cycles/op table.
// Simulated cycles are deterministic, so the numbers are exact, not
// sampled. -json additionally writes the machine-readable report;
// -goldens DIR diffs every row against DIR/<name>.golden and exits
// non-zero on any drift (the CI bench-smoke gate); -write-goldens DIR
// rewrites the golden files instead.
//
// -report runs both the -olevels and -engines measurements and, with
// -json, writes one combined report. JSON reports from -olevels,
// -engines, and -report carry a schema_version plus host metadata
// (GOOS/GOARCH, CPU count, Go version) so the cmmreport regression
// sentinel can tell which numbers are comparable across files:
// simulated cycles always are; host throughput only on the same host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cmm"
	"cmm/internal/obs"
	"cmm/internal/paper"
)

var (
	enginesMode  = flag.Bool("engines", false, "measure host throughput of both engines (ref, native) on the fixed workloads")
	olevelsMode  = flag.Bool("olevels", false, "measure simulated cycles of the fixed workloads at -O0 and -O2")
	reportMode   = flag.Bool("report", false, "run both the -olevels and -engines measurements; with -json, write one combined report for the cmmreport sentinel")
	stacksMode   = flag.Bool("stacks", false, "price the four stack policies across the Figure 2 mechanisms by replaying one observed run each; with -json, write the strategy × mechanism matrix")
	updateExp    = flag.String("update-experiments", "", "with -stacks or -sched, splice the rendered table between that mode's markers in this file (EXPERIMENTS.md)")
	outFile      = flag.String("out", "", "write output to this file instead of stdout")
	jsonOut      = flag.String("json", "", "with -olevels/-engines/-report, also write the report as JSON to this file")
	goldenDir    = flag.String("goldens", "", "with -olevels, diff results against DIR/<name>.golden and fail on drift")
	writeGoldens = flag.String("write-goldens", "", "with -olevels, rewrite DIR/<name>.golden from the measured results")
)

// benchSchemaVersion versions the JSON reports cmmbench writes. Version
// 2 added the envelope itself (schema_version, host, engine_names) and
// the kernel columns of the engines rows; version-1 files are the bare
// {"olevels":...} / {"engines":...} objects earlier PRs checked in,
// which cmmreport still accepts.
const benchSchemaVersion = 2

// benchHost records where a report's host-time numbers were measured.
// The cmmreport sentinel only compares throughput between reports whose
// host metadata is identical; simulated cycles need no such gate.
type benchHost struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

func hostMeta() benchHost {
	return benchHost{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// envelope wraps a report body in the v2 schema header.
func envelope(engineNames []string, body map[string]any) map[string]any {
	out := map[string]any{
		"schema_version": benchSchemaVersion,
		"host":           hostMeta(),
		"engine_names":   engineNames,
	}
	for k, v := range body {
		out[k] = v
	}
	return out
}

func main() {
	flag.Parse()
	out := os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	var err error
	switch {
	case *reportMode:
		err = writeReport(out)
	case *stacksMode:
		err = writeStacks(out)
	case *schedMode:
		err = writeSched(out)
	case *enginesMode:
		err = writeEngines(out)
	case *olevelsMode:
		err = writeOLevels(out)
	default:
		err = writeFigures(out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmmbench:", err)
	os.Exit(1)
}

// mechanism is one point in the Figure 2 design space.
type mechanism struct {
	name       string
	src        string
	dispatcher cmm.Dispatcher
}

func mechanisms() []mechanism {
	return []mechanism{
		{"cut to (generated)", paper.Fig2Cut, nil},
		{"SetCutToCont (runtime)", paper.Fig2RuntimeCut, cmm.NewRegisterDispatcher("handler")},
		{"SetActivation+SetUnwindCont", paper.Fig2RuntimeUnwind, cmm.NewUnwindDispatcher()},
		{"return <m/n> (generated)", paper.Fig2NativeUnwind, nil},
		{"CPS tail call", paper.Fig2CPS, nil},
	}
}

var depths = []uint64{4, 32, 256}

// measure runs f(depth) once under an observer and returns simulated
// cycles plus the observer's metrics counters.
func measure(m mechanism, depth uint64) (int64, map[string]int64, error) {
	mod, err := cmm.Load(m.src)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %v", m.name, err)
	}
	o := cmm.NewObserver()
	opts := []cmm.RunOption{cmm.WithObserver(o)}
	if m.dispatcher != nil {
		opts = append(opts, cmm.WithDispatcher(m.dispatcher))
	}
	mach, err := mod.Native(cmm.CompileConfig{}, opts...)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %v", m.name, err)
	}
	res, err := mach.Run("f", depth)
	if err != nil {
		return 0, nil, fmt.Errorf("%s depth %d: %v", m.name, depth, err)
	}
	if res[0] != 42 {
		return 0, nil, fmt.Errorf("%s depth %d: got %d, want 42", m.name, depth, res[0])
	}
	mach.RecordObsCounters()
	return mach.Stats().Cycles, o.Metrics().Counters, nil
}

func writeFigures(out *os.File) error {
	fmt.Fprintln(out, "# cmmbench figure tables (regenerated from observability metrics)")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "## Figure 2 — raise from depth d to a bottom handler")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| mechanism | d=4 | d=32 | d=256 | slope (cyc/frame) | dispatch evidence |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|")
	for _, m := range mechanisms() {
		var cycles []int64
		var last map[string]int64
		var evidence []string
		for _, d := range depths {
			cyc, counters, err := measure(m, d)
			if err != nil {
				return err
			}
			cycles = append(cycles, cyc)
			last = counters
			switch {
			case counters["unwind_steps"] > 0:
				evidence = append(evidence, fmt.Sprintf("%d", counters["unwind_steps"]))
			case counters["alt_returns"] > 0:
				evidence = append(evidence, fmt.Sprintf("%d", counters["alt_returns"]))
			case counters["cuts"] > 0 || counters["resume_cut"] > 0:
				evidence = append(evidence, fmt.Sprintf("%d", counters["cuts"]+counters["resume_cut"]))
			default:
				evidence = append(evidence, "0")
			}
		}
		// Total cost is linear in d for every mechanism (the stack must be
		// built); the slope separates them: ≈14 cyc/frame of call+return is
		// the pure-descent baseline, and anything above it is per-frame
		// raise cost.
		slope := float64(cycles[2]-cycles[1]) / float64(depths[2]-depths[1])
		kind := "unwind steps"
		switch {
		case last["alt_returns"] > 0:
			kind = "alt returns"
		case last["unwind_steps"] == 0 && (last["cuts"] > 0 || last["resume_cut"] > 0):
			kind = "cuts"
		case last["unwind_steps"] == 0:
			kind = "events"
		}
		fmt.Fprintf(out, "| %s | %d | %d | %d | %.1f | %s: %s |\n",
			m.name, cycles[0], cycles[1], cycles[2], slope,
			kind, joinStrings(evidence, " / "))
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Constant-time mechanisms show depth-independent dispatch evidence")
	fmt.Fprintln(out, "(cuts stay 1/1/1); linear mechanisms walk or return once per frame")
	fmt.Fprintln(out, "(evidence grows with d).")
	fmt.Fprintln(out)
	return writeSetjmp(out)
}

// writeSetjmp reruns the §2 jmp_buf comparison with the observer's
// modeled setjmp-copy events: one KSetjmpCopy of 4·words bytes per
// handler-scope entry.
func writeSetjmp(out *os.File) error {
	const scopes = 100
	fmt.Fprintln(out, "## §2 — setjmp scope-entry cost vs the native 2-pointer cut")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| platform | jmp_buf words | sim cycles (100 scopes) | bytes copied |")
	fmt.Fprintln(out, "|---|---|---|---|")
	for _, p := range []struct {
		name  string
		words int
	}{{"pentium", 6}, {"sparc", 19}, {"alpha", 84}} {
		mod, err := cmm.Load(paper.SetjmpSrc(p.words))
		if err != nil {
			return err
		}
		o := cmm.NewObserver()
		mach, err := mod.Native(cmm.CompileConfig{NoCalleeSaves: true}, cmm.WithObserver(o))
		if err != nil {
			return err
		}
		if _, err := mach.Run("enter", scopes, 0x10000); err != nil {
			return err
		}
		for i := 0; i < scopes; i++ {
			o.EmitNow(obs.KSetjmpCopy, -1, uint64(p.words), uint64(4*p.words))
		}
		mach.RecordObsCounters()
		c := o.Metrics().Counters
		fmt.Fprintf(out, "| %s | %d | %d | %d |\n",
			p.name, p.words, mach.Stats().Cycles, c["setjmp_bytes_copied"])
	}
	fmt.Fprintln(out)
	return nil
}

func joinStrings(ss []string, sep string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += sep
		}
		out += s
	}
	return out
}

// workloadDispatcher builds the run-time system a CycleWorkload's
// Dispatcher spec names (same syntax as cmmrun's -dispatcher flag).
func workloadDispatcher(spec string) (cmm.Dispatcher, error) {
	switch {
	case spec == "":
		return nil, nil
	case spec == "unwind":
		return cmm.NewUnwindDispatcher(), nil
	case strings.HasPrefix(spec, "exnstack:"):
		return cmm.NewExnStackDispatcher(strings.TrimPrefix(spec, "exnstack:")), nil
	case strings.HasPrefix(spec, "register:"):
		return cmm.NewRegisterDispatcher(strings.TrimPrefix(spec, "register:")), nil
	}
	return nil, fmt.Errorf("unknown dispatcher spec %q", spec)
}

// runWorkloadCycles compiles one workload at the given -O level on a
// fresh module and returns the simulated cycles of a single run.
func runWorkloadCycles(w paper.CycleWorkload, level int) (int64, error) {
	mod, err := cmm.Load(w.Src)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", w.Name, err)
	}
	if level != 0 {
		if _, err := mod.ApplyOpt(level); err != nil {
			return 0, fmt.Errorf("%s: %v", w.Name, err)
		}
	}
	d, err := workloadDispatcher(w.Dispatcher)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", w.Name, err)
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
		return 0, fmt.Errorf("%s: %v", w.Name, err)
	}
	res, err := mach.Run(w.Proc, w.Args...)
	if err != nil {
		return 0, fmt.Errorf("%s -O%d: %v", w.Name, level, err)
	}
	if w.Want != nil && (len(res) == 0 || res[0] != *w.Want) {
		return 0, fmt.Errorf("%s -O%d: got %v, want %d", w.Name, level, res, *w.Want)
	}
	return mach.Stats().Cycles, nil
}

// oLevelRow is one row of the -olevels report.
type oLevelRow struct {
	Name         string  `json:"name"`
	O0Cycles     int64   `json:"o0_cycles"`
	O2Cycles     int64   `json:"o2_cycles"`
	ReductionPct float64 `json:"reduction_pct"`
}

func measureOLevels() ([]oLevelRow, error) {
	var rows []oLevelRow
	for _, w := range paper.CycleWorkloads {
		o0, err := runWorkloadCycles(w, 0)
		if err != nil {
			return nil, err
		}
		o2, err := runWorkloadCycles(w, 2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, oLevelRow{
			Name:         w.Name,
			O0Cycles:     o0,
			O2Cycles:     o2,
			ReductionPct: 100 * float64(o0-o2) / float64(o0),
		})
	}
	return rows, nil
}

// goldenText renders one row in the golden-file format checked into
// testdata/bench/ (also parsed by the repo's bench_golden_test.go).
func goldenText(r oLevelRow) string {
	return fmt.Sprintf("O0 %d\nO2 %d\n", r.O0Cycles, r.O2Cycles)
}

func printOLevelsTable(out *os.File, rows []oLevelRow) {
	fmt.Fprintln(out, "## Summary-driven optimizer — simulated cycles at -O0 vs -O2")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| workload | -O0 cycles | -O2 cycles | reduction |")
	fmt.Fprintln(out, "|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(out, "| %s | %d | %d | %.1f%% |\n", r.Name, r.O0Cycles, r.O2Cycles, r.ReductionPct)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Cycles are deterministic simulated counts of one run per workload")
	fmt.Fprintln(out, "(exact, not sampled); every -O2 run's results and observable events")
	fmt.Fprintln(out, "are asserted identical to -O0 by the differential sweep.")
}

// writeJSONReport writes an enveloped v2 report to the -json file.
func writeJSONReport(engineNames []string, body map[string]any) error {
	f, err := os.Create(*jsonOut)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope(engineNames, body))
}

func writeOLevels(out *os.File) error {
	rows, err := measureOLevels()
	if err != nil {
		return err
	}
	printOLevelsTable(out, rows)

	if *jsonOut != "" {
		if err := writeJSONReport([]string{"native"}, map[string]any{"olevels": rows}); err != nil {
			return err
		}
	}
	if *writeGoldens != "" {
		if err := os.MkdirAll(*writeGoldens, 0o755); err != nil {
			return err
		}
		for _, r := range rows {
			path := filepath.Join(*writeGoldens, r.Name+".golden")
			if err := os.WriteFile(path, []byte(goldenText(r)), 0o644); err != nil {
				return err
			}
		}
	}
	if *goldenDir != "" {
		drift := 0
		for _, r := range rows {
			path := filepath.Join(*goldenDir, r.Name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if got := goldenText(r); got != string(want) {
				fmt.Fprintf(os.Stderr, "cmmbench: %s drifted:\n  golden: %q\n  got:    %q\n",
					r.Name, string(want), got)
				drift++
			}
		}
		if drift > 0 {
			return fmt.Errorf("%d workload(s) drifted from %s", drift, *goldenDir)
		}
		fmt.Fprintf(out, "\nAll %d workloads match the goldens in %s.\n", len(rows), *goldenDir)
	}
	return nil
}

// runThroughput times mach.Run(proc, args...) until ~0.3s has elapsed.
func runThroughput(mach *cmm.Machine, proc string, args ...uint64) (float64, int64, error) {
	if _, err := mach.Run(proc, args...); err != nil { // warm-up
		return 0, 0, err
	}
	mach.ResetStats()
	if _, err := mach.Run(proc, args...); err != nil {
		return 0, 0, err
	}
	instrsPerOp := mach.Stats().Instrs
	iters, elapsed := 0, time.Duration(0)
	for elapsed < 300*time.Millisecond {
		start := time.Now()
		if _, err := mach.Run(proc, args...); err != nil {
			return 0, 0, err
		}
		elapsed += time.Since(start)
		iters++
	}
	return float64(elapsed.Nanoseconds()) / float64(iters), instrsPerOp, nil
}

// throughputArgs replaces a workload's checked-in arguments for the
// -engines throughput run. The CycleWorkload args are tuned for exact
// cycle goldens and finish in microseconds, so per-Run setup (machine
// reset, dispatcher install) would dominate the timing; the scaled
// sizes amortize it while staying inside the default 4 MiB memory.
// Workloads absent here run with their golden args.
var throughputArgs = map[string][]uint64{
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

// engineRow is one workload of the -engines JSON report: host
// throughput of each engine on identical simulated work, plus the
// native-tier speedup over the reference stepper and its kernel coverage
// (the share of retired instructions charged by distilled closed-form
// kernels rather than executed one chain at a time — deterministic,
// from the engine telemetry of a single run).
type engineRow struct {
	Name              string             `json:"name"`
	Args              []uint64           `json:"args"`
	SimInstrsPerOp    int64              `json:"sim_instrs_per_op"`
	NsPerOp           map[string]float64 `json:"ns_per_op"`
	SimInstrsPerSec   map[string]float64 `json:"sim_instrs_per_sec"`
	NativeVsRef       float64            `json:"native_vs_ref"`
	KernelInstrsPerOp int64              `json:"kernel_instrs_per_op"`
	KernelHitPct      float64            `json:"kernel_hit_pct"`
}

var engineOrder = []struct {
	name string
	e    cmm.Engine
}{{"ref", cmm.EngineRef}, {"native", cmm.EngineNative}}

// measureEngines times one workload on both engines, checking that they
// retire identical simulated instruction counts and agree on
// the first result word (the throughput run doubles as a parity check).
func measureEngines(w paper.CycleWorkload) (engineRow, error) {
	row := engineRow{
		Name:            w.Name,
		Args:            w.Args,
		NsPerOp:         map[string]float64{},
		SimInstrsPerSec: map[string]float64{},
	}
	if args, ok := throughputArgs[w.Name]; ok {
		row.Args = args
	}
	var firstRes uint64
	haveRes := false
	for _, eng := range engineOrder {
		mod, err := cmm.Load(w.Src)
		if err != nil {
			return row, fmt.Errorf("%s: %v", w.Name, err)
		}
		d, err := workloadDispatcher(w.Dispatcher)
		if err != nil {
			return row, fmt.Errorf("%s: %v", w.Name, err)
		}
		opts := []cmm.RunOption{cmm.WithEngine(eng.e)}
		if d != nil {
			opts = append(opts, cmm.WithDispatcher(d))
		}
		mach, err := mod.Native(cmm.CompileConfig{
			TestAndBranch: w.TestAndBranch,
			NoCalleeSaves: w.NoCalleeSaves,
		}, opts...)
		if err != nil {
			return row, fmt.Errorf("%s: %v", w.Name, err)
		}
		res, err := mach.Run(w.Proc, row.Args...)
		if err != nil {
			return row, fmt.Errorf("%s/%s: %v", w.Name, eng.name, err)
		}
		if len(res) > 0 {
			if haveRes && res[0] != firstRes {
				return row, fmt.Errorf("%s/%s: result %d disagrees with %d", w.Name, eng.name, res[0], firstRes)
			}
			firstRes, haveRes = res[0], true
		}
		nsPerOp, instrsPerOp, err := runThroughput(mach, w.Proc, row.Args...)
		if err != nil {
			return row, fmt.Errorf("%s/%s: %v", w.Name, eng.name, err)
		}
		if row.SimInstrsPerOp == 0 {
			row.SimInstrsPerOp = instrsPerOp
		} else if row.SimInstrsPerOp != instrsPerOp {
			return row, fmt.Errorf("%s/%s: retired %d sim instrs, other engines retired %d",
				w.Name, eng.name, instrsPerOp, row.SimInstrsPerOp)
		}
		row.NsPerOp[eng.name] = nsPerOp
		row.SimInstrsPerSec[eng.name] = float64(instrsPerOp) / (nsPerOp / 1e9)
		if eng.e == cmm.EngineNative {
			// Kernel coverage from one clean run's telemetry (ResetStats
			// zeroes the telemetry along with the counters).
			mach.ResetStats()
			if _, err := mach.Run(w.Proc, row.Args...); err != nil {
				return row, fmt.Errorf("%s/%s: %v", w.Name, eng.name, err)
			}
			t := mach.Telemetry()
			row.KernelInstrsPerOp = t.KernelInstrs
			if instrsPerOp > 0 {
				row.KernelHitPct = 100 * float64(t.KernelInstrs) / float64(instrsPerOp)
			}
		}
	}
	row.NativeVsRef = row.SimInstrsPerSec["native"] / row.SimInstrsPerSec["ref"]
	return row, nil
}

func measureAllEngines() ([]engineRow, error) {
	var rows []engineRow
	for _, w := range paper.CycleWorkloads {
		row, err := measureEngines(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func printEnginesTable(out *os.File, rows []engineRow) {
	fmt.Fprintln(out, "## Execution engines — simulated instructions retired per host second")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| workload | sim instrs/op | kernel hit | ref | native | native/ref |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(out, "| %s | %d | %.0f%% | %.0fM | %.0fM | %.1f× |\n",
			r.Name, r.SimInstrsPerOp, r.KernelHitPct,
			r.SimInstrsPerSec["ref"]/1e6, r.SimInstrsPerSec["native"]/1e6, r.NativeVsRef)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Both engines retire the identical simulated instruction stream (the")
	fmt.Fprintln(out, "run asserts it); only host time differs. The kernel-hit column is the")
	fmt.Fprintln(out, "share of retired instructions the native tier charged in closed form")
	fmt.Fprintln(out, "(deterministic telemetry); its distilled kernels dominate on the")
	fmt.Fprintln(out, "figure1 stack-shape workloads.")
}

var allEngineNames = []string{"ref", "native"}

func writeEngines(out *os.File) error {
	rows, err := measureAllEngines()
	if err != nil {
		return err
	}
	printEnginesTable(out, rows)
	if *jsonOut != "" {
		return writeJSONReport(allEngineNames, map[string]any{"engines": rows})
	}
	return nil
}

// writeReport runs the -olevels and -engines measurements back to back
// and, with -json, writes one combined v2 report — the per-PR snapshot
// (BENCH_pr8.json and successors) the cmmreport sentinel trends over.
func writeReport(out *os.File) error {
	olevels, err := measureOLevels()
	if err != nil {
		return err
	}
	engines, err := measureAllEngines()
	if err != nil {
		return err
	}
	printOLevelsTable(out, olevels)
	fmt.Fprintln(out)
	printEnginesTable(out, engines)
	if *jsonOut != "" {
		return writeJSONReport(allEngineNames, map[string]any{
			"olevels": olevels,
			"engines": engines,
		})
	}
	return nil
}
