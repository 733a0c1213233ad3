// Command cmmrun executes a C-- source file. By default it runs the
// abstract machine of the paper's operational semantics (§5), where
// programs that "go wrong" report exactly which rule could not fire;
// with -engine=native or -engine=ref it compiles the program and runs it
// on the simulated target machine instead (the host-native closure-chain
// tier, or the reference stepper that specifies it — simulated costs are
// identical under both).
//
// Usage:
//
//	cmmrun [flags] file.cmm
//
// Examples:
//
//	cmmrun -run sp3 -args 10 figure1.cmm
//	cmmrun -engine=native -stats -run sp3 -args 10 figure1.cmm
//	cmmrun -engine=native -explain -run sp3 -args 10 figure1.cmm
//	cmmrun -engine=native -trace=run.json -metrics=m.json -profile=p.folded \
//	    -dispatcher=unwind -run main raise.cmm
//	cmmrun -engine=native -cpuprofile cpu.out -run f -args 1000 fig34.cmm
//
// Observability: -trace writes the event stream (Chrome Trace Event
// JSON by default — load it in chrome://tracing or Perfetto — or a
// text log with -trace-format=text); -metrics writes named counters and
// histograms as JSON (its counters section is the machine-readable form
// of -stats); -profile writes a folded-stacks simulated-cycle
// profile for flamegraph tools. All three work under every engine;
// under interp, timestamps are abstract-machine transitions rather than
// simulated cycles. -stack prices an activation-stack representation by
// replaying the run's trace. -profile and -stack need the whole trace,
// so both fail when the trace buffer dropped events.
//
// Errors are rendered as structured diagnostics (severity and the pass
// that produced them), and the exit status is non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"cmm"
	"cmm/internal/diag"
)

// badFlag reports an unrecognized value for an enum-valued flag,
// always listing what the flag accepts. Every cmmrun flag with a fixed
// value set fails through this one helper so the diagnostics stay
// uniform.
func badFlag(name, got string, valid ...string) error {
	return fmt.Errorf("unknown -%s value %q (valid values: %s)", name, got, strings.Join(valid, ", "))
}

var (
	runProc     = flag.String("run", "main", "procedure to run")
	argList     = flag.String("args", "", "comma-separated integer arguments")
	optLevel    = flag.Int("O", 0, "optimization level: 0 baseline, 1 scalar+frame optimizations, 2 adds interprocedural pruning and return peepholes")
	dispatcher  = flag.String("dispatcher", "", "front-end runtime: unwind, exnstack:<global>, or register:<global>")
	engine      = flag.String("engine", "interp", "execution engine: interp (§5 semantics), ref (reference stepper), or native (compiled closure chains)")
	stats       = flag.Bool("stats", false, "print counters after the run: simulated costs under ref/native, transitions under interp")
	traceOut    = flag.String("trace", "", "write an execution trace to this file")
	traceFormat = flag.String("trace-format", "chrome", "trace format: chrome (Trace Event JSON) or text")
	metricsOut  = flag.String("metrics", "", "write counters and histograms as JSON to this file")
	profileOut  = flag.String("profile", "", "write a folded-stacks simulated-cycle profile to this file")
	cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile  = flag.String("memprofile", "", "write a heap profile after the run to this file")
	vet         = flag.Bool("vet", false, "run the §4 well-formedness verifier before running; verifier errors fail the load (see VERIFIER.md)")
	explain     = flag.Bool("explain", false, "print the native distiller's kernel report before running (which candidate cycles matched a closed-form kernel, and the precise rejection reason for the rest) and, under ref/native, the engine telemetry after it (kernel entries/iters, deopt buckets, chain dispatches; all zero under ref)")
	stackPolicy = flag.String("stack", "", "activation-stack policy: contig, seg, copy, or hybrid (machine engines only); observes the run, prints the policy's ledger priced by replaying the trace, adds the stack section to -metrics, and sets the representation -cont multishot checks")
	contMode    = flag.String("cont", "", "continuation reuse contract: unchecked (the default), oneshot or multishot (machine engines only; violations trap deterministically)")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cmmrun [flags] file.cmm")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *traceFormat != "chrome" && *traceFormat != "text" {
		fatal("flags", badFlag("trace-format", *traceFormat, "chrome", "text"))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal("load", err)
	}
	mod, err := cmm.LoadWith(string(src), cmm.LoadConfig{File: flag.Arg(0), Verify: *vet})
	if err != nil {
		fatal("compile", err)
	}
	if *optLevel != 0 {
		summary, err := mod.ApplyOpt(*optLevel)
		if err != nil {
			fatal("flags", err)
		}
		fmt.Printf("-O%d: %s\n", *optLevel, summary)
	}

	var observer *cmm.Observer
	if *traceOut != "" || *metricsOut != "" || *profileOut != "" || *stackPolicy != "" {
		observer = cmm.NewObserver()
	}

	var opts []cmm.RunOption
	d, err := cmm.ParseDispatcher(*dispatcher)
	if err != nil {
		fatal("flags", badFlag("dispatcher", *dispatcher, "unwind", "exnstack:<global>", "register:<global>"))
	}
	if d != nil {
		opts = append(opts, cmm.WithDispatcher(d))
	}
	if observer != nil {
		opts = append(opts, cmm.WithObserver(observer))
	}
	var stackKind cmm.StackKind
	if *stackPolicy != "" {
		if *engine == "interp" {
			fatal("flags", fmt.Errorf("-stack needs a machine engine (ref or native); the §5 abstract machine has no activation-stack representation"))
		}
		stackKind, err = cmm.ParseStackKind(*stackPolicy)
		if err != nil {
			fatal("flags", badFlag("stack", *stackPolicy, "contig", "seg", "copy", "hybrid"))
		}
		opts = append(opts, cmm.WithStackPolicy(stackKind))
	}
	if *contMode != "" {
		if *engine == "interp" {
			fatal("flags", fmt.Errorf("-cont needs a machine engine (ref or native)"))
		}
		mode, err := cmm.ParseContMode(*contMode)
		if err != nil {
			fatal("flags", badFlag("cont", *contMode, "unchecked", "oneshot", "multishot"))
		}
		opts = append(opts, cmm.WithContMode(mode))
	}

	var args []uint64
	if *argList != "" {
		for _, part := range strings.Split(*argList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				fatal("flags", err)
			}
			args = append(args, v)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("profile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("profile", err)
		}
		defer pprof.StopCPUProfile()
	}

	switch *engine {
	case "interp":
		if *explain {
			// The distiller works on compiled code; compile just for the
			// report (the interp run below is unaffected).
			mach, err := mod.Native(cmm.CompileConfig{Opt: *optLevel})
			if err != nil {
				fatal("compile", err)
			}
			fmt.Print(mach.KernelReport().Format(mach.ProcAt))
		}
		in, err := mod.Interp(opts...)
		if err != nil {
			fatal("load", err)
		}
		res, err := in.Run(*runProc, args...)
		if err != nil {
			writeObservations(mod, observer)
			fatal("run", err)
		}
		fmt.Printf("%s(%v) = %v\n", *runProc, args, res)
		if *stats {
			fmt.Printf("transitions: %d\n", in.Steps())
		}
	case "ref", "native":
		if *engine == "ref" {
			opts = append(opts, cmm.WithEngine(cmm.EngineRef))
		}
		mach, err := mod.Native(cmm.CompileConfig{Opt: *optLevel}, opts...)
		if err != nil {
			fatal("compile", err)
		}
		if *explain {
			fmt.Print(mach.KernelReport().Format(mach.ProcAt))
		}
		res, err := mach.Run(*runProc, args...)
		mach.RecordObsCounters()
		mach.RecordEngineTelemetry()
		var ledger cmm.StackStats
		if *stackPolicy != "" {
			var serr error
			if ledger, serr = mach.StackStats(stackKind); serr != nil {
				fatal("stack", serr)
			}
			observer.RecordStackStats(ledger)
		}
		if err != nil {
			writeObservations(mod, observer)
			fatal("run", err)
		}
		fmt.Printf("%s(%v) = %v\n", *runProc, args, res)
		if *stats {
			fmt.Println(mach.Stats())
		}
		if *explain {
			printTelemetry(mach)
		}
		if *stackPolicy != "" {
			printStackStats(ledger)
		}
	default:
		fatal("flags", badFlag("engine", *engine, "interp", "ref", "native"))
	}

	writeObservations(mod, observer)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal("profile", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("profile", err)
		}
	}
}

func printTelemetry(mach *cmm.Machine) {
	t := mach.Telemetry()
	fmt.Printf("telemetry[%s]: kernel entries: %d iters: %d instrs: %d | deopts cycle-exit: %d trap-edge: %d budget: %d observer: %d | dispatches: %d\n",
		mach.EngineName(), t.KernelEntries, t.KernelIters, t.KernelInstrs,
		t.DeoptCycleExit, t.DeoptTrap, t.DeoptBudget, t.DeoptObserver,
		t.ChainDispatches)
}

func printStackStats(s cmm.StackStats) {
	fmt.Printf("stack[%s]: policy-cycles: %d cuts: %d captures: %d capture-words: %d resumes: %d overflows: %d underflows: %d segments-peak: %d\n",
		s.Kind, s.PolicyCycles, s.Cuts, s.Captures, s.CaptureWords, s.Resumes,
		s.Overflows, s.Underflows, s.SegmentsPeak)
}

// writeObservations exports whatever the observer collected, even when
// the run itself failed: a trace of a failing run is exactly what the
// flags are for.
func writeObservations(mod *cmm.Module, o *cmm.Observer) {
	if o == nil {
		return
	}
	if *traceOut != "" {
		mod.ObserveCompile(o) // put compile passes on the same timeline
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal("trace", err)
		}
		defer f.Close()
		if *traceFormat == "text" {
			err = o.WriteTextTrace(f)
		} else {
			err = o.WriteChromeTrace(f)
		}
		if err != nil {
			fatal("trace", err)
		}
	}
	if *metricsOut != "" {
		data, err := o.Metrics().JSON()
		if err != nil {
			fatal("metrics", err)
		}
		if err := os.WriteFile(*metricsOut, data, 0o644); err != nil {
			fatal("metrics", err)
		}
	}
	if *profileOut != "" {
		p, err := o.Profile()
		if err != nil {
			fatal("profile", err)
		}
		if err := os.WriteFile(*profileOut, []byte(p.Folded()), 0o644); err != nil {
			fatal("profile", err)
		}
	}
}

// fatal renders err through the structured-diagnostic renderer — the
// same severity/pass format the compiler uses — and exits non-zero.
func fatal(pass string, err error) {
	fmt.Fprint(os.Stderr, diag.AsList(err, pass).String())
	os.Exit(1)
}
