// Command cmmc compiles a C-- source file to the simulated target
// machine and optionally runs a procedure.
//
// Usage:
//
//	cmmc [flags] file.cmm
//
// Examples:
//
//	cmmc -run sp1 -args 10 figure1.cmm
//	cmmc -opt -disasm f -stats -run f -args 3 prog.cmm
//	cmmc -dispatcher unwind -run TryAMove game.cmm
//	cmmc -passes -timings -opt prog.cmm
//	cmmc -dump-after=opt -proc f prog.cmm
//	cmmc -minim3 cutting -timings -run run_Main prog.mm
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cmm"
	"cmm/internal/diag"
)

var (
	runProc    = flag.String("run", "", "procedure to run")
	argList    = flag.String("args", "", "comma-separated integer arguments")
	doOpt      = flag.Bool("opt", false, "run the scalar optimizer first (same IR passes as -O 1)")
	optLevel   = flag.Int("O", 0, "optimization level: 0 baseline, 1 scalar+frame optimizations, 2 adds interprocedural pruning and return peepholes")
	disasm     = flag.String("disasm", "", "disassemble a procedure")
	stats      = flag.Bool("stats", false, "print cost-model counters after running")
	dispatcher = flag.String("dispatcher", "", "front-end runtime: unwind, exnstack:<global>, or register:<global>")
	testBranch = flag.Bool("test-and-branch", false, "use test-and-branch instead of branch-table alternate returns")
	noSaves    = flag.Bool("no-callee-saves", false, "disable callee-saves register allocation")

	passes    = flag.Bool("passes", false, "list the compilation passes, in order")
	timings   = flag.Bool("timings", false, "print per-pass wall time and IR-size deltas")
	dumpAfter = flag.String("dump-after", "", "comma-separated pass names to snapshot the IR after")
	dumpProc  = flag.String("proc", "", "restrict -dump-after snapshots to one procedure")
	workers   = flag.Int("workers", 0, "procedure-level parallelism (0: NumCPU, 1: serial); output is identical for every value")
	minim3Pol = flag.String("minim3", "", "treat the input as MiniM3 under this exception policy: cutting, unwinding, or native")
	diags     = flag.Bool("diags", false, "print structured diagnostics (notes included) after compiling")
	vet       = flag.Bool("vet", false, "run the §4 well-formedness verifier; verifier errors fail the load (see VERIFIER.md)")
	vetStrict = flag.Bool("vet-strict", false, "with -vet, also flag provably useless annotations")
	explainK  = flag.Bool("explain-kernels", false, "print the native distiller's kernel report after compiling: matched cycle shapes and the precise rejection reason for the rest (no run needed)")
)

func main() {
	flag.Parse()
	if *passes && flag.NArg() == 0 {
		printPasses()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cmmc [flags] file.cmm")
		flag.PrintDefaults()
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	lc := cmm.LoadConfig{File: file, Workers: *workers, DumpProc: *dumpProc,
		Verify: *vet || *vetStrict, VerifyStrict: *vetStrict}
	if *dumpAfter != "" {
		lc.DumpAfter = strings.Split(*dumpAfter, ",")
	}
	var mod *cmm.Module
	if *minim3Pol != "" {
		mod, err = cmm.LoadMiniM3With(string(src), parsePolicy(*minim3Pol), lc)
	} else {
		mod, err = cmm.LoadWith(string(src), lc)
	}
	if err != nil {
		fatal(err)
	}
	if *passes {
		printPasses()
	}
	if *doOpt {
		fmt.Println("optimizer:", mod.Optimize())
	}
	if *optLevel != 0 {
		summary, err := mod.ApplyOpt(*optLevel)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("-O%d: %s\n", *optLevel, summary)
	}
	var opts []cmm.RunOption
	d, err := cmm.ParseDispatcher(*dispatcher)
	if err != nil {
		fatal(err)
	}
	if d != nil {
		opts = append(opts, cmm.WithDispatcher(d))
	} else if *minim3Pol != "" {
		if d := minim3Dispatcher(*minim3Pol); d != nil {
			opts = append(opts, cmm.WithDispatcher(d))
		}
	}
	mach, err := mod.Native(cmm.CompileConfig{
		TestAndBranch: *testBranch,
		NoCalleeSaves: *noSaves,
		Opt:           *optLevel,
	}, opts...)
	if err != nil {
		fatal(err)
	}
	if *disasm != "" {
		text, err := mach.Disassemble(*disasm)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	}
	if *explainK {
		fmt.Print(mach.KernelReport().Format(mach.ProcAt))
	}
	if *runProc != "" {
		args := parseArgs(*argList)
		res, err := mach.Run(*runProc, args...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s(%v) result registers: %v\n", *runProc, args, res)
		if *stats {
			s := mach.Stats()
			fmt.Printf("cycles=%d instrs=%d loads=%d stores=%d branches=%d calls=%d yields=%d\n",
				s.Cycles, s.Instrs, s.Loads, s.Stores, s.Branches, s.Calls, s.Yields)
		}
	}
	for _, pass := range lc.DumpAfter {
		for _, proc := range mod.DumpAfterProcs(pass) {
			text, _ := mod.DumpAfter(pass, proc)
			fmt.Printf("=== %s after %s ===\n%s", proc, pass, text)
		}
	}
	if *diags {
		for _, d := range mod.Diagnostics() {
			fmt.Println(d)
		}
	}
	if *timings {
		fmt.Print(cmm.FormatPassStats(mod.PassStats()))
	}
}

func printPasses() {
	for _, name := range cmm.PassNames() {
		fmt.Println(name)
	}
}

func parsePolicy(spec string) cmm.ExceptionPolicy {
	switch spec {
	case "cutting":
		return cmm.StackCutting
	case "unwinding":
		return cmm.RuntimeUnwinding
	case "native":
		return cmm.NativeUnwinding
	}
	fatal(fmt.Errorf("unknown MiniM3 policy %q (want cutting, unwinding, or native)", spec))
	panic("unreachable")
}

// minim3Dispatcher installs the runtime each MiniM3 policy requires (the
// names match the globals the MiniM3 emitter declares).
func minim3Dispatcher(spec string) cmm.Dispatcher {
	switch spec {
	case "cutting":
		return cmm.NewExnStackDispatcher("mm_exn_top")
	case "unwinding":
		return cmm.NewUnwindDispatcher()
	}
	return nil // native: dispatch is entirely generated code
}

func parseArgs(s string) []uint64 {
	if s == "" {
		return nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad argument %q: %v", part, err))
		}
		out = append(out, v)
	}
	return out
}

// fatal renders err through the structured-diagnostic renderer — the
// same severity/pass format the compiler uses — and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, diag.AsList(err, "cmmc").String())
	os.Exit(1)
}
