package main

// Oracles for the exec, serve and interp workloads. Every expected value
// is derived from the program text in internal/paper, never from a run
// of the compiler under test; oracle_test.go checks them against each
// CycleWorkload.Want that is set.

import (
	"fmt"
	"strings"

	"cmm"
	"cmm/internal/rts"
)

// reference returns the expected first result of CycleWorkload name run
// on argument n. Arithmetic is bits32, so results wrap at 2^32.
func reference(name string, n uint64) (uint64, error) {
	x := uint32(n)
	switch {
	case strings.HasPrefix(name, "figure1_"):
		// sp1, sp2 and sp3 all compute the sum 1..n first.
		return uint64(uint32(uint64(x) * uint64(x+1) / 2)), nil
	case strings.HasPrefix(name, "fig2_"):
		// Every Figure 2 mechanism delivers the raised 42 to the handler.
		return 42, nil
	case strings.HasPrefix(name, "fig34_"):
		// g returns its argument normally for every i < 10^6, so f
		// returns the last i.
		return uint64(x - 1), nil
	case strings.HasPrefix(name, "callee_saves_"):
		// Each iteration adds leaf's 1 plus a+b+c+d = 10; the exit adds
		// the final 10. The cut edge is never taken.
		return uint64(11*x + 10), nil
	case name == "opt_handler_rich":
		// Each iteration adds y = 5 through g.
		return uint64(5 * x), nil
	}
	return 0, fmt.Errorf("no reference for workload %s", name)
}

// sizeRange is the argument range the seed draws from for each
// CycleWorkload in the exec workload. The Figure 2 range spans raise
// depths from tens to a few thousand frames; the loop workloads' ranges
// give them comparable host time. The interp workload divides by 8.
func sizeRange(name string) (lo, hi uint64) {
	switch {
	case strings.HasPrefix(name, "figure1_"):
		return 16, 2048
	case strings.HasPrefix(name, "fig2_"):
		return 16, 4096
	case strings.HasPrefix(name, "fig34_"):
		return 64, 8192
	}
	return 32, 4096
}

// dispatcherFor builds the run-time system a CycleWorkload names:
// "", "unwind", "register:<global>" or "exnstack:<global>".
func dispatcherFor(spec string) (cmm.Dispatcher, error) {
	kind, global, _ := strings.Cut(spec, ":")
	switch kind {
	case "":
		return nil, nil
	case "unwind":
		return cmm.NewUnwindDispatcher(), nil
	case "register":
		return cmm.NewRegisterDispatcher(global), nil
	case "exnstack":
		return cmm.NewExnStackDispatcher(global), nil
	}
	return nil, fmt.Errorf("unknown dispatcher %q", spec)
}

// newGenDispatcher serves generated programs, which raise through both
// run-time mechanisms: tagCut goes to the register dispatcher (the
// program parks its handler in the "handler" global), every other tag to
// the unwind dispatcher (the program's descriptors).
func newGenDispatcher() cmm.Dispatcher {
	reg := cmm.NewRegisterDispatcher("handler")
	unw := cmm.NewUnwindDispatcher()
	return cmm.DispatcherFunc(func(t rts.Thread, args []uint64) error {
		if len(args) >= 2 && args[1] == tagCut {
			return reg.Dispatch(t, args)
		}
		return unw.Dispatch(t, args)
	})
}
