// cmmvet statically checks C-- modules against the paper's §4
// well-formedness rules: weak-continuation escape, call-site annotations
// as sound over-approximations of what callees can do, return-arity
// agreement, and unreachable code after calls that never return
// normally. See VERIFIER.md for every check, its rule, and an example.
//
// Exit status is 1 when any module fails to load or any verifier error
// is reported; warnings alone exit 0 (use them as review input).
//
// Examples:
//
//	cmmvet prog.cmm
//	cmmvet -strict prog.cmm other.cmm
//	cmmvet -minim3 cutting game.m3
package main

import (
	"flag"
	"fmt"
	"os"

	"cmm"
	"cmm/internal/diag"
)

var (
	strict    = flag.Bool("strict", false, "also flag provably useless annotations")
	minim3Pol = flag.String("minim3", "", "treat inputs as MiniM3 under this exception policy: cutting, unwinding, or native")
)

func main() {
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: cmmvet [-strict] [-minim3 policy] file...")
		os.Exit(2)
	}
	var policy cmm.ExceptionPolicy
	if *minim3Pol != "" {
		var err error
		if policy, err = cmm.ParseExceptionPolicy(*minim3Pol); err != nil {
			fmt.Fprintln(os.Stderr, "cmmvet:", err)
			os.Exit(2)
		}
	}
	failed := false
	for _, file := range flag.Args() {
		if !vetFile(file, policy) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// vetFile loads and verifies one module (under policy when -minim3 is
// set), printing every finding in structured diagnostic form. It
// reports whether the file is clean of errors (warnings do not count
// against it).
func vetFile(file string, policy cmm.ExceptionPolicy) bool {
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmmvet:", err)
		return false
	}
	lc := cmm.LoadConfig{File: file}
	var mod *cmm.Module
	if *minim3Pol != "" {
		mod, err = cmm.LoadMiniM3With(string(src), policy, lc)
	} else {
		mod, err = cmm.LoadWith(string(src), lc)
	}
	if err != nil {
		fmt.Print(diag.AsList(err, "load").String())
		return false
	}
	ds := mod.Verify(*strict)
	fmt.Print(ds.String())
	return !ds.HasErrors()
}
