// Command cmmdump prints a procedure's Abstract C-- flow graph
// (Table 2), its SSA numbering (the Figure 6 presentation), or its
// live-variable sets. For the IR after a named pass, use
// cmmc -dump-after.
//
// Usage:
//
//	cmmdump [-O level] [-proc name] [-ssa] [-live] file.cmm
//	cmmdump -minim3 cutting -emit-cmm game.m3
//
// The flow graph prints unless -ssa or -live is given.
package main

import (
	"flag"
	"fmt"
	"os"

	"cmm"
	"cmm/internal/diag"
)

var (
	proc     = flag.String("proc", "", "procedure to dump (default: all)")
	ssa      = flag.Bool("ssa", false, "print the SSA numbering (Figure 6)")
	live     = flag.Bool("live", false, "print live-variable sets")
	optLevel = flag.Int("O", 0, "optimize first at this level, as cmmc -O does (0, 1, or 2)")
	m3pol    = flag.String("minim3", "", "treat input as MiniM3 and compile under policy: cutting, unwinding, native")
	emitCmm  = flag.Bool("emit-cmm", false, "with -minim3: print the generated C-- source")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cmmdump [flags] file.cmm")
		flag.PrintDefaults()
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	lc := cmm.LoadConfig{File: flag.Arg(0)}
	var mod *cmm.Module
	if *m3pol != "" {
		policy, perr := cmm.ParseExceptionPolicy(*m3pol)
		if perr != nil {
			fatal(perr)
		}
		mod, err = cmm.LoadMiniM3With(string(data), policy, lc)
	} else {
		mod, err = cmm.LoadWith(string(data), lc)
	}
	if err != nil {
		fatal(err)
	}
	if *emitCmm && *m3pol != "" {
		fmt.Print(mod.Source())
		return
	}
	if *optLevel != 0 {
		summary, err := mod.ApplyOpt(*optLevel)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("-O%d: %s\n", *optLevel, summary)
	}
	procs := mod.Procedures()
	if *proc != "" {
		procs = []string{*proc}
	}
	for _, p := range procs {
		if !*ssa && !*live {
			text, err := mod.DumpGraph(p)
			if err != nil {
				fatal(err)
			}
			fmt.Print(text)
		}
		if *ssa {
			text, err := mod.DumpSSA(p)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("=== SSA %s ===\n%s", p, text)
		}
		if *live {
			text, err := mod.DumpLiveness(p)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("=== liveness %s ===\n%s", p, text)
		}
	}
}

// fatal renders err through the structured-diagnostic renderer — the
// same severity/pass format the compiler uses — and exits non-zero.
func fatal(err error) {
	fmt.Fprint(os.Stderr, diag.AsList(err, "cmmdump").String())
	os.Exit(1)
}
