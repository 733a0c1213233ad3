package main

// The -sched mode benchmarks the M:N simulated-thread scheduler
// (internal/sched): a fixed, deterministic mix of handler-rich requests
// — every task runs one of the four Figure 2 exception mechanisms, a
// slice of them with cancellation deadlines — is served over growing
// host-worker pools, and the aggregate simulated-instruction throughput
// is reported per pool size. Because per-task results, traps, and
// counters are deterministic by construction, the sweep doubles as the
// determinism proof: every pool size must reproduce the 1-worker run's
// per-task tuples exactly, and the run fails loudly if it does not.

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cmm/internal/cfg"
	"cmm/internal/check"
	"cmm/internal/codegen"
	"cmm/internal/dispatch"
	"cmm/internal/machine"
	"cmm/internal/paper"
	"cmm/internal/rts"
	"cmm/internal/sched"
	"cmm/internal/syntax"
	"cmm/internal/vm"
)

var (
	schedMode    = flag.Bool("sched", false, "benchmark the M:N scheduler: serve a handler-rich request mix over growing worker pools and report aggregate throughput plus a determinism proof")
	schedTasks   = flag.Int("sched-tasks", 2000, "with -sched, number of simulated threads in the request mix")
	schedSlice   = flag.Int64("sched-slice", sched.DefaultSlice, "with -sched, budget slice in simulated instructions per scheduling turn")
	schedWorkers = flag.String("sched-workers", "", "with -sched, comma-separated worker counts to sweep (default: 1,2,4,NumCPU deduplicated)")
)

// schedProto compiles one Figure 2 source as a scheduler prototype on
// the native tier.
func schedProto(src string, opts ...vm.Option) (*vm.Instance, error) {
	prog, err := syntax.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := check.Check(prog)
	if err != nil {
		return nil, err
	}
	g, err := cfg.Build(prog, info)
	if err != nil {
		return nil, err
	}
	cp, err := codegen.Compile(g, codegen.Options{})
	if err != nil {
		return nil, err
	}
	all := append([]vm.Option{
		vm.WithEngine(machine.EngineNative),
		// Big enough for the deepest request's activation stack, small
		// enough that instantiating thousands of threads stays cheap:
		// the clone's memory is the whole per-thread cost.
		vm.WithMemSize(1 << 17),
	}, opts...)
	return vm.NewInstance(cp, all...)
}

func schedDispatcher(d interface {
	Dispatch(t rts.Thread, args []uint64) error
}) vm.Option {
	return vm.WithRuntime(vm.RuntimeFunc(func(th *vm.Thread, args []uint64) error {
		return d.Dispatch(rts.VMThread{T: th}, args)
	}))
}

var schedMechanisms = []string{"cut_to", "set_cut_to_cont", "unwind", "return_mn"}

// schedProtos builds the four mechanism prototypes.
func schedProtos() ([]*vm.Instance, error) {
	cut, err := schedProto(paper.Fig2Cut)
	if err != nil {
		return nil, err
	}
	rtcut, err := schedProto(paper.Fig2RuntimeCut,
		schedDispatcher(&dispatch.RegisterDispatcher{HandlerGlobal: "handler"}))
	if err != nil {
		return nil, err
	}
	unwind, err := schedProto(paper.Fig2RuntimeUnwind,
		schedDispatcher(&dispatch.UnwindDispatcher{}))
	if err != nil {
		return nil, err
	}
	mn, err := schedProto(paper.Fig2NativeUnwind)
	if err != nil {
		return nil, err
	}
	return []*vm.Instance{cut, rtcut, unwind, mn}, nil
}

// schedRequestMix builds the fixed workload: n requests round-robin over
// the mechanisms with varying raise depths; every 11th request is a deep
// runtime-cut dig with a simulated-instruction timeout, so cancellation
// (cut-to from outside) is part of the steady-state mix.
func schedRequestMix(protos []*vm.Instance, n int) []sched.Task {
	tasks := make([]sched.Task, 0, n)
	for i := 0; i < n; i++ {
		tk := sched.Task{
			ID:    i,
			Proto: protos[i%len(protos)],
			Proc:  "f",
			Args:  []uint64{uint64(64 + 64*(i%32))},
		}
		if i%11 == 5 {
			tk.Proto = protos[1]
			tk.Args = []uint64{3000}
			tk.CancelAfter = 30_000
			tk.CancelCont = "handler"
			tk.CancelParams = []uint64{7, 99}
		}
		tasks = append(tasks, tk)
	}
	return tasks
}

// schedWorkerSweep parses -sched-workers or derives the default sweep.
func schedWorkerSweep() ([]int, error) {
	var counts []int
	if *schedWorkers != "" {
		for _, f := range strings.Split(*schedWorkers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad -sched-workers entry %q", f)
			}
			counts = append(counts, n)
		}
	} else {
		counts = []int{1, 2, 4, runtime.NumCPU()}
	}
	sort.Ints(counts)
	out := counts[:0]
	for i, n := range counts {
		if i == 0 || n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out, nil
}

// schedRow is one sweep point of the -sched report.
type schedRow struct {
	Workers         int     `json:"workers"`
	WallNs          int64   `json:"wall_ns"`
	SimInstrs       int64   `json:"sim_instrs"`
	SimInstrsPerSec float64 `json:"sim_instrs_per_sec"`
	SpeedupVs1      float64 `json:"speedup_vs_1"`
	// Identical is the determinism proof: this pool size reproduced the
	// 1-worker run's per-task (result, trap, Stats, slices, cancel)
	// tuples exactly. The run aborts if any sweep point is false.
	Identical bool `json:"identical"`
}

// schedReport is the "sched" section of the JSON report.
type schedReport struct {
	Engine     string     `json:"engine"`
	Tasks      int        `json:"tasks"`
	Slice      int64      `json:"slice"`
	Mechanisms []string   `json:"mechanisms"`
	Completed  int64      `json:"completed"`
	Cancelled  int64      `json:"cancelled"`
	Trapped    int64      `json:"trapped"`
	Rows       []schedRow `json:"rows"`
}

// diffResults compares two runs' per-task tuples; "" means identical.
func diffResults(a, b []sched.Result) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d results", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Stats != y.Stats || x.Slices != y.Slices || x.Cancelled != y.Cancelled ||
			x.CutDepth != y.CutDepth || fmt.Sprint(x.Err) != fmt.Sprint(y.Err) ||
			fmt.Sprint(x.Res) != fmt.Sprint(y.Res) {
			return fmt.Sprintf("task %d diverged: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

func writeSched(out *os.File) error {
	counts, err := schedWorkerSweep()
	if err != nil {
		return err
	}
	protos, err := schedProtos()
	if err != nil {
		return err
	}
	tasks := schedRequestMix(protos, *schedTasks)
	// Warm the shared compiles outside the timed region: the sweep
	// measures scheduling, not the one-off artifact build.
	for _, p := range protos {
		p.Precompile()
	}

	rep := schedReport{
		Engine:     "native",
		Tasks:      len(tasks),
		Slice:      *schedSlice,
		Mechanisms: schedMechanisms,
	}
	var baseline []sched.Result
	for _, w := range counts {
		start := time.Now()
		results, err := sched.Run(sched.Config{Workers: w, Slice: *schedSlice}, tasks)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		var instrs int64
		for _, r := range results {
			instrs += r.Stats.Instrs
		}
		row := schedRow{
			Workers:         w,
			WallNs:          wall.Nanoseconds(),
			SimInstrs:       instrs,
			SimInstrsPerSec: float64(instrs) / wall.Seconds(),
			Identical:       true,
		}
		if baseline == nil {
			baseline = results
			for _, r := range results {
				switch {
				case r.Err != nil:
					rep.Trapped++
				case r.Cancelled:
					rep.Cancelled++
				default:
					rep.Completed++
				}
			}
			if rep.Trapped > 0 {
				return fmt.Errorf("request mix trapped %d of %d tasks", rep.Trapped, len(tasks))
			}
		} else if d := diffResults(baseline, results); d != "" {
			row.Identical = false
			rep.Rows = append(rep.Rows, row)
			return fmt.Errorf("determinism violated at %d workers: %s", w, d)
		}
		if len(rep.Rows) > 0 {
			row.SpeedupVs1 = row.SimInstrsPerSec / rep.Rows[0].SimInstrsPerSec
		} else {
			row.SpeedupVs1 = 1
		}
		rep.Rows = append(rep.Rows, row)
	}

	table := renderSchedTable(rep)
	fmt.Fprintf(out, "## M:N scheduler — %d handler-rich requests over host-goroutine pools\n\n", rep.Tasks)
	fmt.Fprint(out, table)
	if *jsonOut != "" {
		if err := writeJSON("sched", rep); err != nil {
			return err
		}
	}
	if *updateExp != "" {
		if err := spliceMarkers(*updateExp, schedBeginMarker, schedEndMarker, table); err != nil {
			return err
		}
	}
	return nil
}

// schedMarkers bracket the region of EXPERIMENTS.md that -sched
// -update-experiments regenerates.
const (
	schedBeginMarker = "<!-- cmmsched:begin -->"
	schedEndMarker   = "<!-- cmmsched:end -->"
)

func renderSchedTable(rep schedReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generated by `go run ./cmd/cmmbench -sched` (%d requests, engine %s,\nslice %d sim instrs, mechanisms %s; outcomes: %d completed,\n%d cancelled by deadline cut). Every pool size must reproduce the\n1-worker per-task (result, trap, counters) tuples exactly or the run\nfails — the table doubles as the determinism proof.\n\n",
		rep.Tasks, rep.Engine, rep.Slice, strings.Join(rep.Mechanisms, "/"), rep.Completed, rep.Cancelled)
	fmt.Fprintf(&b, "| workers | wall | aggregate sim instrs/s | speedup vs 1 | per-task tuples |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|\n")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "| %d | %s | %.0fM | %.2f× | identical |\n",
			r.Workers, time.Duration(r.WallNs).Round(time.Millisecond), r.SimInstrsPerSec/1e6, r.SpeedupVs1)
	}
	fmt.Fprintf(&b, "\nRecorded on a %d-CPU host; speedups beyond that core count are bounded\nby the hardware, not the scheduler (CI regenerates this table on its\nown runner).\n", runtime.NumCPU())
	return b.String()
}
