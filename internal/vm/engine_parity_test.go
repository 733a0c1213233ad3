package vm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cmm/internal/codegen"
	"cmm/internal/machine"
	"cmm/internal/paper"
	"cmm/internal/progen"
)

// The engine-parity suite: the native closure-compiled engine must
// produce bit-identical observable state against the reference stepper — results, every
// register, all of simulated memory, and every Counters field — on the
// paper figures, on dispatcher-driven yields, and on a randomized
// program sweep, at -O0 and -O2. The cost-model numbers ARE the paper
// reproduction, so this suite is what licenses engine optimizations.

// engineState is the complete observable outcome of one run.
type engineState struct {
	res   []uint64
	err   string
	stats machine.Counters
	regs  [machine.NumRegs]uint64
	mem   []byte
}

// parityBudget bounds each engine run in the native-vs-ref sweeps. A
// program that exceeds it traps identically on both engines (the
// backstop is part of the parity contract), so a tight budget loses no
// coverage while keeping divergent random programs cheap.
const parityBudget = 5_000_000

func runOnEngine(t *testing.T, cp *codegen.Program, e machine.Engine, budget int64, proc string, args []uint64, opts ...Option) engineState {
	t.Helper()
	inst, err := NewInstance(cp, append([]Option{WithEngine(e), WithMemSize(1 << 20)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if budget > 0 {
		inst.M.MaxInstrs = budget
	}
	res, err := inst.Run(proc, args...)
	st := engineState{res: res, stats: inst.Stats(), regs: inst.M.Regs, mem: inst.M.Mem}
	if err != nil {
		st.err = err.Error()
	}
	return st
}

// compareEngines runs proc on the reference stepper and on the native
// tier and requires bit-identical traps, results, counters, registers
// and memory. It returns the reference run.
func compareEngines(t *testing.T, label string, cp *codegen.Program, proc string, args []uint64, opts ...Option) engineState {
	t.Helper()
	ref := runOnEngine(t, cp, machine.EngineRef, parityBudget, proc, args, opts...)
	got := runOnEngine(t, cp, machine.EngineNative, parityBudget, proc, args, opts...)
	if ref.err != got.err {
		t.Errorf("%s %s%v: trap mismatch\nref:    %q\nnative: %q", label, proc, args, ref.err, got.err)
		return ref
	}
	if ref.err == "" {
		for i := range ref.res {
			if ref.res[i] != got.res[i] {
				t.Errorf("%s %s%v result %d: ref %d native %d", label, proc, args, i, ref.res[i], got.res[i])
			}
		}
	}
	if ref.stats != got.stats {
		t.Errorf("%s %s%v: counter mismatch\nref:    %+v\nnative: %+v", label, proc, args, ref.stats, got.stats)
	}
	if ref.regs != got.regs {
		t.Errorf("%s %s%v: register mismatch\nref:    %v\nnative: %v", label, proc, args, ref.regs, got.regs)
	}
	if !bytes.Equal(ref.mem, got.mem) {
		t.Errorf("%s %s%v: simulated memory mismatch", label, proc, args)
	}
	return ref
}

func TestEngineParityFigure1(t *testing.T) {
	for _, opt := range []int{0, 2} {
		cp := compile(t, paper.Figure1, codegen.Options{Opt: opt})
		for _, proc := range []string{"sp1", "sp2", "sp3"} {
			for _, n := range []uint64{0, 1, 5, 20} {
				compareEngines(t, fmt.Sprintf("figure1/-O%d", opt), cp, proc, []uint64{n})
			}
		}
	}
}

// TestEngineParityRandomSweep is the seeded differential sweep required
// for any engine change: ≥50 random programs (with and without
// exceptional control flow) on several inputs, native vs. reference,
// at -O0 and -O2, asserting bit-identical results AND
// simulated counters.
func TestEngineParityRandomSweep(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		for _, exc := range []bool{false, true} {
			src := progen.Generate(int64(seed), progen.Config{Exceptions: exc})
			for _, opt := range []int{0, 2} {
				cp := compile(t, src, codegen.Options{Opt: opt})
				for _, arg := range []uint64{0, 1, 7, 100} {
					compareEngines(t, fmt.Sprintf("seed=%d/exc=%v/-O%d", seed, exc, opt), cp, "p0", []uint64{arg})
				}
			}
		}
	}
}

// TestEngineParityVsSemantics closes the triangle: the native engine
// must also agree with the §5 abstract machine on results (the counters
// are compared native-vs-ref above; the semantics has no machine
// counters). Generated programs return, so an error on either side fails
// the test: two failures are not an agreement.
func TestEngineParityVsSemantics(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		for _, exc := range []bool{false, true} {
			src := progen.Generate(int64(seed), progen.Config{Exceptions: exc})
			cp := compile(t, src, codegen.Options{})
			for _, arg := range []uint64{1, 7} {
				sm, err := newSemMachine(buildCFG(t, src))
				if err != nil {
					t.Fatal(err)
				}
				semRes, semErr := sm.Run("p0", arg)
				nat := runOnEngine(t, cp, machine.EngineNative, 0, "p0", []uint64{arg})
				if semErr != nil || nat.err != "" {
					t.Errorf("seed %d exc=%v arg=%d: sem err=%v, native err=%q", seed, exc, arg, semErr, nat.err)
					continue
				}
				if semRes[0].Bits != nat.res[0] {
					t.Errorf("seed %d exc=%v arg=%d: sem %d, native %d\n%s",
						seed, exc, arg, semRes[0].Bits, nat.res[0], src)
				}
			}
		}
	}
}

// Exception descriptor layout (Figure 9), as deposited by the test
// sources below: word 0 is the handler count; each entry is
// { exn_tag, cont_num, takes_arg } in 32-bit words.
func unwindWalker(t *Thread, args []uint64) error {
	tag, arg := args[1], args[2]
	a, ok := t.FirstActivation()
	if !ok {
		return errors.New("no activations")
	}
	for {
		if desc, ok := a.GetDescriptor(0); ok {
			count, err := t.LoadWord(desc, 4)
			if err != nil {
				return err
			}
			for i := uint64(0); i < count; i++ {
				base := desc + 4 + i*12
				dtag, _ := t.LoadWord(base, 4)
				cont, _ := t.LoadWord(base+4, 4)
				takes, _ := t.LoadWord(base+8, 4)
				if dtag == tag {
					t.SetActivation(a)
					t.SetUnwindCont(int(cont))
					if takes == 1 {
						t.SetContParam(0, arg)
					}
					return t.Resume()
				}
			}
		}
		a, ok = a.NextActivation()
		if !ok {
			return errors.New("unhandled exception")
		}
	}
}

// cutWalker is the handler-register policy: the global `handler` holds a
// continuation value; raising cuts to it with (tag, arg).
func cutWalker(t *Thread, args []uint64) error {
	k, ok := t.GlobalWord("handler")
	if !ok {
		return errors.New("no handler global")
	}
	t.SetContParam(0, args[1])
	t.SetContParam(1, args[2])
	if err := t.SetCutToCont(k); err != nil {
		return err
	}
	return t.Resume()
}

const unwindParitySrc = `
section "data" {
    desc: bits32 1,  7, 0, 1;
}
f(bits32 depth) {
    bits32 r;
    r = dig(depth) also unwinds to k also aborts descriptors(desc);
    return (r);
continuation k(r):
    return (r);
}
dig(bits32 n) {
    bits32 r;
    if n == 0 {
        yield(1, 7, 42) also aborts;
    }
    r = dig(n - 1) also aborts;
    return (r);
}
`

const cutParitySrc = `
bits32 handler;
f(bits32 depth) {
    bits32 tag, arg;
    handler = k;
    arg = dig(depth) also cuts to k;
    return (arg);
continuation k(tag, arg):
    return (arg);
}
dig(bits32 n) {
    bits32 r;
    if n == 0 {
        yield(1, 7, 42) also aborts;
    }
    r = dig(n - 1) also aborts;
    return (r);
}
`

// TestEngineParityYieldDispatch drives the run-time-system path: yields
// suspend the machine mid-run with partially flushed counters, the
// dispatcher walks activations (charging simulated cycles as it goes),
// and Resume re-enters generated code. Both the stack-walking and the
// stack-cutting dispatchers must behave identically on both engines.
func TestEngineParityYieldDispatch(t *testing.T) {
	unwind := compile(t, unwindParitySrc, codegen.Options{})
	cut := compile(t, cutParitySrc, codegen.Options{})
	for _, depth := range []uint64{0, 1, 4, 32} {
		st := compareEngines(t, "unwind", unwind, "f", []uint64{depth}, WithRuntime(RuntimeFunc(unwindWalker)))
		if st.err == "" && st.res[0] != 42 {
			t.Errorf("unwind depth=%d: got %d, want 42", depth, st.res[0])
		}
		st = compareEngines(t, "cut", cut, "f", []uint64{depth}, WithRuntime(RuntimeFunc(cutWalker)))
		if st.err == "" && st.res[0] != 42 {
			t.Errorf("cut depth=%d: got %d, want 42", depth, st.res[0])
		}
	}
}

// TestEngineParityForeign covers foreign calls (direct and via
// procedure-pointer tail calls), which flush and reload engine state.
func TestEngineParityForeign(t *testing.T) {
	src := `
import twice;
f(bits32 n) {
    bits32 r;
    r = twice(n);
    r = r + twice(n + 1);
    return (r);
}
`
	cp := compile(t, src, codegen.Options{})
	doubler := func(inst *Instance, args []uint64) ([]uint64, error) {
		return []uint64{args[0] * 2}, nil
	}
	for _, n := range []uint64{0, 5, 1000} {
		st := compareEngines(t, "foreign", cp, "f", []uint64{n}, WithForeign("twice", doubler))
		if st.err == "" && st.res[0] != 2*n+2*(n+1) {
			t.Errorf("foreign n=%d: got %d", n, st.res[0])
		}
	}
}
